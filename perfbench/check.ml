(* Every reply is compared with an in-process reference answer for the
   same query. Exact references compose what [Analytical_dse.run] and
   [Analytical.explore] do — prelude, histograms, then the table or the
   K optimum — with the histograms computed once per trace by the
   streaming kernel, independent of the daemons' arena kernel. Approx
   references run [Approx_dse] over the sketched trace. References are
   memoised per (trace, query). *)

let memo : (string * Protocol.query, Protocol.outcome) Hashtbl.t = Hashtbl.create 256

let exact_references name trace queries =
  let prepared = Analytical.prepare trace in
  let stats = Analytical.stats prepared in
  let histograms = Analytical.histograms ~method_:Analytical.Streaming prepared in
  List.iter
    (fun q ->
      let outcome =
        match q with
        | Protocol.Percents percents ->
          Protocol.Table (Analytical_dse.of_histograms ~percents ~name ~stats histograms)
        | Protocol.Budget k -> Protocol.Optimal (Optimizer.of_histograms ~k histograms)
      in
      Hashtbl.replace memo (name, q) outcome)
    queries

let approx_references name trace queries =
  let prepared = Approx_dse.prepare (Approx_dse.sketch_trace trace) in
  List.iter
    (fun q ->
      let outcome =
        match q with
        | Protocol.Percents percents ->
          Protocol.Approx_table (Approx_dse.table ~percents ~name prepared)
        | Protocol.Budget k -> Protocol.Approx_optimal (Approx_dse.optimal ~k prepared)
      in
      Hashtbl.replace memo (name, q) outcome)
    queries

(* [prepare reqs] fills the memo for every (trace, query) not yet in
   it. *)
let prepare (reqs : Workloads.req list) =
  let by_trace = Hashtbl.create 64 in
  List.iter
    (fun (r : Workloads.req) ->
      if not (Hashtbl.mem memo (r.name, r.query)) then
        let trace, approx, qs =
          Option.value (Hashtbl.find_opt by_trace r.name) ~default:(r.trace, r.approx, [])
        in
        Hashtbl.replace by_trace r.name (trace, approx, r.query :: qs))
    reqs;
  Hashtbl.iter
    (fun name (trace, approx, qs) ->
      let qs = List.sort_uniq compare qs in
      if approx then approx_references name trace qs else exact_references name trace qs)
    by_trace

let expected (r : Workloads.req) = Hashtbl.find memo (r.name, r.query)

let matches (r : Workloads.req) outcome = compare (expected r) outcome = 0
