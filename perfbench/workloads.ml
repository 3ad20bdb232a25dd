(* Seeded request streams. The same seed gives the same traces, order
   and queries; the daemons only ever see what is
   generated here. *)

type req = {
  id : int;
  group : int;  (** the pass it belongs to *)
  name : string;  (** unique per distinct trace *)
  trace : Trace.t;
  refs : int;
  query : Protocol.query;
  approx : bool;
  probe : bool;  (** [cold_exact]: a K re-query after the cold pass *)
}

(* Tables are always the paper's budget percentages, so a seed changes
   which traces get a table, never what a table costs; K varies as a
   share of the trace's depth-1 direct-mapped miss count. *)
let table = Protocol.Percents [ 5; 10; 15; 20 ]
let budget_percents = [| 1; 2; 5; 10 |]

let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let rng seed parts = Random.State.make (Array.of_list (seed :: parts))

type source = { sname : string; strace : Trace.t; max_misses : int }

let source sname strace = { sname; strace; max_misses = (Stats.compute strace).Stats.max_misses }

let budget rng s = Protocol.Budget (s.max_misses * pick rng budget_percents / 100)

let next_id = ref 0

let req ?(approx = false) ?(probe = false) ~group s query =
  incr next_id;
  {
    id = !next_id;
    group;
    name = s.sname;
    trace = s.strace;
    refs = Trace.length s.strace;
    query;
    approx;
    probe;
  }

(* The 24 PowerStone traces (data and instruction) at [scale]. Traces
   already generated under the same name are reused, so repeated set-ups
   pay the generation time without holding duplicate copies. *)
let canonical : (string, source) Hashtbl.t = Hashtbl.create 64

let powerstone scale =
  List.concat_map
    (fun w ->
      let inst, data = Workload.traces w in
      List.map
        (fun (suffix, trace) ->
          let name = w.Workload.name ^ suffix in
          match Hashtbl.find_opt canonical name with
          | Some s -> s
          | None ->
            let s = source name trace in
            Hashtbl.replace canonical name s;
            s)
        [ (".data", data); (".inst", inst) ])
    (Registry.scaled scale)
  |> Array.of_list

(* cold_exact, one pass: every trace once with a percent table (all
   misses on a fresh daemon), then every trace once more with a K budget
   (hits, answered from the histograms the pass just computed). *)
let cold_pass ~seed ~pass sources =
  let rng = rng seed [ 1; pass ] in
  let cold = Array.map (fun s -> req ~group:pass s table) (shuffle rng (Array.copy sources)) in
  let probes =
    Array.map
      (fun s -> req ~probe:true ~group:pass s (budget rng s))
      (shuffle rng (Array.copy sources))
  in
  Array.append cold probes

(* approx_large, one pass: [approx_fresh] new power-law traces, tables
   and K budgets alternating from a seeded start, each after the second
   followed by a re-query of an already submitted one with the other
   query kind. *)
let approx_refs = 250_000
let approx_fresh = 6

let approx_sources ~seed ~pass =
  Array.init approx_fresh (fun i ->
      let trace_seed = (seed * 1_000) + (pass * 50) + i in
      source
        (Printf.sprintf "zipf-%d-%d-%d" seed pass i)
        (Synthetic.power_law ~seed:trace_seed ~span:65_536 ~skew:0.8 ~length:approx_refs ()))

let approx_pass ~seed ~pass sources =
  let rng = rng seed [ 2; pass ] in
  let last_kind = Hashtbl.create 8 in
  let submit s q =
    Hashtbl.replace last_kind s.sname q;
    req ~approx:true ~group:pass s q
  in
  let requery i =
    let s = sources.(Random.State.int rng i) in
    match Hashtbl.find last_kind s.sname with
    | Protocol.Percents _ -> submit s (budget rng s)
    | Protocol.Budget _ -> submit s table
  in
  let phase = Random.State.int rng 2 in
  let out = ref [] in
  Array.iteri
    (fun i s ->
      out := submit s (if (i + phase) mod 2 = 0 then table else budget rng s) :: !out;
      if i >= 1 then out := requery (i + 1) :: !out)
    sources;
  out := requery (Array.length sources) :: !out;
  Array.of_list (List.rev !out)
