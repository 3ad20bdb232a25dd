(* perfbench: the DSE service benchmark.

     perfbench --workload cold_exact|approx_large --seed N
               --seconds S --trace 0|1 [--dse PATH]

   One load-generator process, with one client connection open at a
   time, drives real `dse serve` daemons and a `dse route` gateway
   spawned from [--dse]. Every reply is checked against an
   in-process reference answer. With [--trace 0] the last stdout line is
   a JSON object carrying the end-to-end metrics; with [--trace 1] the
   same load runs again, then its requests are replayed in-process
   through each layer's public functions and the line carries the
   per-layer metrics. The exit code is non-zero if any request failed or
   any answer differed from its reference. *)

let now = Unix.gettimeofday

(* Human-readable lines go before the JSON result line. *)
let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* ---- requests on the wire ---- *)

type res = {
  req : Workloads.req;
  lat_ms : float;  (** from send to reply *)
  result : (Protocol.result_payload, Dse_error.t) result;
}

let submit addr (r : Workloads.req) =
  let percents, k =
    match r.query with
    | Protocol.Percents p -> (Some p, None)
    | Protocol.Budget k -> (None, Some k)
  in
  Client.submit ~socket:addr ?percents ?k ~approx:r.approx ~name:r.name r.trace

let send addr r =
  let sent = now () in
  let result = submit addr r in
  { req = r; lat_ms = (now () -. sent) *. 1000.; result }

(* One client: the next request goes out when the previous reply is in. *)
let closed_loop addr reqs =
  let start = now () in
  let out = Array.map (send addr) reqs in
  (out, now () -. start)

(* ---- one workload run ---- *)

type gateway = Spawned of Fleet.proc | In_process of Router.t * unit Domain.t * string

type run = {
  mutable results : res list;  (** timed requests, in send order *)
  mutable unmeasured : res list;  (** [router_probe]'s requests: checked, not timed *)
  mutable setups : float list;
  mutable active : float;  (** seconds the timed windows took *)
  mutable rss_mb : float;
  counters : Fleet.counters;
  mutable router_stats : Router.stats list;  (** one per in-process gateway, traced runs *)
  mutable router_added : float;  (** ms a gateway adds to a hit, traced runs *)
}

let new_run () =
  { results = []; unmeasured = []; setups = []; active = 0.; rss_mb = 0.;
    counters = Fleet.counters (); router_stats = []; router_added = 0. }

let lats rs = Array.of_list (List.map (fun r -> if Result.is_ok r.result then r.lat_ms else 1e9) rs)

(* Seconds spent in [gateway_grace] waits so far. *)
let graced = ref 0.

(* Set-up time leaves the grace waits out: they are the benchmark's
   work-around, not the program's start-up. *)
let timed_setup f =
  let t0 = now () and g0 = !graced in
  let v = f () in
  (v, now () -. t0 -. (!graced -. g0))

let gateway_addr = function Spawned p -> p.Fleet.addr | In_process (_, _, addr) -> addr

(* Wait before the first request to a spawned gateway. `dse route` dies
   with CamlinternalLazy.Undefined when its first client request reaches
   a forwarder domain while the accept loop's first backend health poll
   is running: both force the lazy CRC-32 table (lib/trace/crc32.ml)
   from different domains. Even the readiness ping is such a request,
   so the wait comes first. [--gateway-probe] reproduces the defect
   without this wait, which can go once the table is built eagerly. *)
let gateway_grace = 0.5

(* The traced run fronts the backends with the gateway library in this
   process, so [Router.stats] covers the whole load. *)
let start_gateway ~traced label backends =
  if traced then begin
    let listen = Printf.sprintf "127.0.0.1:%d" (Fleet.free_port ()) in
    match
      Router.create ~log:ignore
        { Router.default_config with
          listen;
          backends = List.map (fun b -> b.Fleet.addr) backends;
          forwarders = 2 }
    with
    | Error e -> failwith ("router: " ^ Dse_error.to_string e)
    | Ok r ->
      let g = In_process (r, Domain.spawn (fun () -> Router.run r), listen) in
      Fleet.wait_ready { Fleet.pid = Unix.getpid (); label; addr = listen; log = "" };
      g
  end
  else begin
    let p = Fleet.route label backends in
    let t0 = now () in
    Unix.sleepf gateway_grace;
    graced := !graced +. (now () -. t0);
    Fleet.wait_ready p;
    Spawned p
  end

(* The processes one workload set-up talks to: a lone daemon, or two
   daemons behind a gateway. [addr] is where the client sends. *)
type fleet = { addr : string; backends : Fleet.proc list; gateway : gateway option }

let direct label =
  let d = Fleet.serve label in
  Fleet.wait_ready d;
  { addr = d.Fleet.addr; backends = [ d ]; gateway = None }

(* Fixed backend ports, below the ephemeral range: the gateway's ring is
   built from the backend addresses, so fixed addresses place every trace
   on the same backend in every run. *)
let backend_ports = [ 27461; 27462 ]

let routed ~traced label =
  let backends =
    List.mapi (fun i port -> Fleet.serve ~port (Printf.sprintf "%s-b%d" label i)) backend_ports
  in
  List.iter Fleet.wait_ready backends;
  let gw = start_gateway ~traced (label ^ "-gw") backends in
  { addr = gateway_addr gw; backends; gateway = Some gw }

let stop_fleet fleet =
  (match fleet.gateway with
  | Some (Spawned p) -> Fleet.stop p
  | Some (In_process (r, dom, _)) ->
    Router.stop r;
    Domain.join dom
  | None -> ());
  List.iter Fleet.stop fleet.backends

(* Adds the fleet's daemon counters, memory high-water marks and
   gateway stats to the run. *)
let collect run fleet =
  List.iter (Fleet.add_health run.counters) fleet.backends;
  let procs =
    match fleet.gateway with Some (Spawned p) -> p :: fleet.backends | _ -> fleet.backends
  in
  List.iter (fun p -> run.rss_mb <- Float.max run.rss_mb (Fleet.peak_rss_mb p)) procs;
  (match fleet.gateway with
  | Some (In_process (r, _, _)) -> run.router_stats <- Router.stats r :: run.router_stats
  | _ -> ())

(* Set-up time is a median over at least three set-ups. *)
let extra_setups run setup =
  while List.length run.setups < 3 do
    let (fleet, _), s = timed_setup setup in
    stop_fleet fleet;
    run.setups <- s :: run.setups
  done

(* The same K hit sent straight to a backend and through the gateway,
   once per PowerStone scale-1 trace; both backends are warmed first so
   each send is a cache hit. *)
let router_probe run fleet =
  let gw = Option.get fleet.gateway in
  let direct = List.hd fleet.backends in
  let via_direct = ref [] and via_gw = ref [] in
  Array.iteri
    (fun i (s : Workloads.source) ->
      let r = Workloads.req ~group:(-1) s (Protocol.Budget (s.Workloads.max_misses * 5 / 100)) in
      let sent addr =
        let x = send addr r in
        run.unmeasured <- x :: run.unmeasured;
        x.lat_ms
      in
      List.iter (fun (b : Fleet.proc) -> ignore (sent b.addr)) fleet.backends;
      let d () = via_direct := sent direct.addr :: !via_direct
      and g () = via_gw := sent (gateway_addr gw) :: !via_gw in
      if i mod 2 = 0 then (d (); g ()) else (g (); d ()))
    (Workloads.powerstone 1);
  run.router_added <-
    Quantile.median (Array.of_list !via_gw) -. Quantile.median (Array.of_list !via_direct)

(* Passes on fresh fleets until [seconds] is spent; a pass starts only
   if at least half the previous pass's duration remains. [last] sees
   the final pass's fleet after its counters are collected. *)
let passes ~seconds run ~setup ~requests ~last =
  let deadline = now () +. seconds in
  let rec go pass =
    let (fleet, sources), s = timed_setup (fun () -> setup pass) in
    run.setups <- s :: run.setups;
    let res, wall = closed_loop fleet.addr (requests pass sources) in
    run.results <- run.results @ Array.to_list res;
    run.active <- run.active +. wall;
    let again = deadline -. now () >= wall /. 2. in
    collect run fleet;
    if not again then last fleet;
    stop_fleet fleet;
    if again then go (pass + 1)
  in
  go 0;
  extra_setups run (fun () -> setup 99)

let cold_exact ~seed ~seconds run =
  let setup pass =
    let sources = Workloads.powerstone 4 in
    (direct (Printf.sprintf "cold%d" pass), sources)
  in
  passes ~seconds run ~setup ~last:ignore ~requests:(fun pass sources ->
      Workloads.cold_pass ~seed ~pass sources)

let approx_large ~seed ~seconds ~traced run =
  let setup pass =
    let sources = Workloads.approx_sources ~seed ~pass in
    (routed ~traced (Printf.sprintf "approx%d" pass), sources)
  in
  passes ~seconds run ~setup
    ~last:(if traced then router_probe run else ignore)
    ~requests:(fun pass sources -> Workloads.approx_pass ~seed ~pass sources)

(* [--gateway-probe N]: start a fleet N times and submit at once,
   without the grace above, while a spinning domain keeps one core busy
   (the race needs a domain descheduled mid-initialisation); counts the
   gateways that died. *)
let gateway_probe rounds =
  let source = (Workloads.powerstone 1).(0) in
  let spinning = Atomic.make true in
  let spinner = Domain.spawn (fun () -> while Atomic.get spinning do () done) in
  let crashed = ref 0 in
  for i = 1 to rounds do
    let label = Printf.sprintf "probe%d" i in
    let backends = [ Fleet.serve ~port:0 (label ^ "-b0"); Fleet.serve ~port:0 (label ^ "-b1") ] in
    List.iter Fleet.wait_ready backends;
    let gw = Fleet.route (label ^ "-gw") backends in
    let r = Workloads.req ~group:0 source Workloads.table in
    (match
       Fleet.wait_ready gw;
       submit gw.addr r
     with
    | Ok _ -> ()
    | Error _ | (exception Failure _) -> incr crashed);
    Fleet.stop gw;
    List.iter Fleet.stop backends
  done;
  Atomic.set spinning false;
  Domain.join spinner;
  say "gateway start-up probe: %d of %d gateways failed their first request" !crashed rounds;
  !crashed

(* ---- metrics ---- *)

type metric = { mname : string; value : float; unit_ : string }

let m mname value unit_ = { mname; value; unit_ }

let ok_results rs =
  List.filter_map (fun r -> match r.result with Ok p -> Some (r, p) | Error _ -> None) rs

let hit_split rs =
  let ok = ok_results rs in
  let pick hit = Array.of_list (List.filter_map (fun (r, p) -> if p.Protocol.cache_hit = hit then Some r.lat_ms else None) ok) in
  (pick true, pick false)

(* The latency sample: every request but [cold_exact]'s K re-queries. *)
let end_to_end run =
  let lat = lats (List.filter (fun r -> not r.req.probe) run.results) in
  let hits, misses = hit_split run.results in
  let refs =
    List.fold_left (fun acc (r, _) -> acc + r.req.refs) 0 (ok_results run.results)
  in
  say "samples: latency n=%d, hits n=%d, misses n=%d, setups n=%d" (Array.length lat)
    (Array.length hits) (Array.length misses) (List.length run.setups);
  [
    m "setup_s" (Quantile.median (Array.of_list run.setups)) "s";
    m "p50_ms" (Quantile.median lat) "ms";
    m "p90_ms" (Quantile.percentile lat 90.) "ms";
    m "hit_p50_ms" (Quantile.median hits) "ms";
    m "miss_p50_ms" (Quantile.median misses) "ms";
    m "refs_per_s" (float_of_int refs /. run.active) "1/s";
    (* a closed loop's single client: completed requests per second *)
    m "max_rps" (float_of_int (List.length run.results) /. run.active) "1/s";
    m "peak_rss_mb" run.rss_mb "MiB";
  ]

let per_layer ~seconds ~dir ~spans_path run =
  let t = Layers.create ~dir in
  let refs = Hashtbl.create 256 in
  let sample = run.results in
  let deadline = now () +. seconds in
  let group = ref min_int in
  let done_ =
    List.filter
      (fun r ->
        match r.result with
        | Ok p when now () < deadline ->
          if r.req.group <> !group then Layers.reset_cache t;
          group := r.req.group;
          Hashtbl.replace refs r.req.id r.req.refs;
          Layers.replay t r.req p.Protocol.outcome;
          true
        | _ -> false)
      sample
  in
  Layers.write t spans_path;
  (* Stage spans plus the residual account for the median request: over
     the requests between the 40th and 60th latency percentiles, the
     mean span sum plus the mean residual is their mean latency. *)
  let sums = Layers.path_sums t in
  let sum r = Option.value (Hashtbl.find_opt sums r.req.id) ~default:0. in
  let e2e = Array.of_list (List.map (fun r -> r.lat_ms) done_) in
  let lo = Quantile.percentile e2e 40. and hi = Quantile.percentile e2e 60. in
  let band = List.filter (fun r -> r.lat_ms >= lo && r.lat_ms <= hi) done_ in
  let band_mean f = Quantile.mean (Array.of_list (List.map f band)) in
  let mean = Layers.mean_ms t in
  let per_ref stage scale =
    Quantile.mean
      (Array.of_list
         (List.filter_map
            (fun (s : Layers.span) ->
              if s.stage = stage then Some (scale (float_of_int (Hashtbl.find refs s.rid)) s.ms)
              else None)
            t.spans))
  in
  let answers = Array.append (Layers.durations t "postlude.table") (Layers.durations t "postlude.budget") in
  let c = run.counters in
  let router_sum f = List.fold_left (fun acc s -> acc + f s) 0 run.router_stats in
  let forwarded = router_sum (fun s -> s.Router.forwarded) in
  let hedge_ratio =
    if forwarded = 0 then 0.
    else float_of_int (router_sum (fun s -> s.Router.hedged)) /. float_of_int forwarded
  in
  say "replayed %d of %d requests; %d in-process answers differed from the daemon's"
    (List.length done_) (List.length sample) t.mismatches;
  say "median band (n=%d): latency %.2f ms = spans %.2f ms + residual %.2f ms" (List.length band)
    (band_mean (fun r -> r.lat_ms)) (band_mean sum) (band_mean (fun r -> r.lat_ms -. sum r));
  ( t.mismatches,
    [
      m "arena.kernel_ms" (mean "arena.kernel") "ms";
      m "arena.ns_per_ref" (per_ref "arena.kernel" (fun n ms -> ms *. 1e6 /. n)) "ns";
      m "analytical.prepare_ms" (mean "analytical.prepare") "ms";
      m "postlude.answer_ms" (Quantile.mean answers) "ms";
      m "postlude.answer_ms.table" (mean "postlude.table") "ms";
      m "postlude.answer_ms.budget" (mean "postlude.budget") "ms";
      m "protocol.encode_ms" (mean "protocol.encode") "ms";
      m "protocol.decode_ms" (mean "protocol.decode") "ms";
      m "protocol.frame_bytes" (Quantile.mean (Array.of_list t.frame_bytes)) "bytes";
      m "protocol.reply_ms" (mean "protocol.reply") "ms";
      m "trace.fingerprint_ms" (mean "trace.fingerprint") "ms";
      m "result_cache.find_us" (mean "result_cache.find" *. 1000.) "us";
      m "result_cache.hit_ratio"
        (if c.hits + c.misses = 0 then 0. else float_of_int c.hits /. float_of_int (c.hits + c.misses))
        "ratio";
      m "sketch.ms" (mean "sketch") "ms";
      m "sketch.refs_per_s" (per_ref "sketch" (fun n ms -> n /. (ms /. 1000.))) "1/s";
      m "approx.prepare_ms" (mean "approx.prepare") "ms";
      m "approx.answer_ms" (mean "approx.answer") "ms";
      m "router.added_ms" run.router_added "ms";
      m "router.hedge_ratio" hedge_ratio "ratio";
      m "router.failovers" (float_of_int (router_sum (fun s -> s.Router.failovers))) "count";
      m "server.kernel_runs" (float_of_int c.kernel_runs) "count";
      m "server.coalesced_hits" (float_of_int c.coalesced) "count";
      m "server.shed" (float_of_int c.shed) "count";
      m "server.residual_ms" (band_mean (fun r -> r.lat_ms -. sum r)) "ms";
      m "trace.requests" (float_of_int (List.length done_)) "count";
      m "trace.e2e_p50_ms" (Quantile.median e2e) "ms";
      m "trace.span_sum_ms" (band_mean sum) "ms";
    ] )

(* ---- main ---- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname (json_float x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let usage () =
  prerr_endline
    "usage: perfbench --workload cold_exact|approx_large --seed N --seconds S \
     --trace 0|1 [--dse PATH]\n       perfbench --gateway-probe N [--dse PATH]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and traced = ref false in
  let dse = ref ".bench_build/src/_build/default/bin/dse.exe" in
  let probe = ref 0 in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; args rest
    | "--trace" :: v :: rest -> traced := v = "1"; args rest
    | "--dse" :: v :: rest -> dse := v; args rest
    | "--gateway-probe" :: v :: rest -> probe := int_of_string v; args rest
    | [] -> ()
    | _ -> usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !probe = 0 && not (List.mem !workload [ "cold_exact"; "approx_large" ]) then
    usage ();
  if not (Sys.file_exists !dse) then begin
    prerr_endline ("perfbench: no dse binary at " ^ !dse);
    exit 2
  end;
  (* sockets, daemon logs and span dumps stay inside the checkout *)
  let run_root = ".perfbench-run" in
  let dir = Filename.concat run_root (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir run_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  Fleet.dse := !dse;
  Fleet.run_dir := dir;
  (* a failed run keeps its directory: the daemons' logs explain it *)
  let keep = ref true in
  at_exit (fun () ->
      Fleet.stop_all ();
      if not !keep then remove_tree dir);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 3));
  if !probe > 0 then begin
    let failed = gateway_probe !probe in
    keep := failed > 0;
    exit (if failed > 0 then 1 else 0)
  end;
  (* a roomier heap keeps the generator's own GC pauses out of the
     latencies it measures *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 200 };
  let run = new_run () in
  let seed = !seed and seconds = !seconds in
  (match !workload with
  | "cold_exact" -> cold_exact ~seed ~seconds run
  | _ -> approx_large ~seed ~seconds ~traced:!traced run);
  (* answers are checked after the timed window, so checking costs no
     measured time *)
  let all = run.results @ run.unmeasured in
  let t0 = now () in
  Check.prepare (List.map (fun r -> r.req) all);
  say "reference answers computed in %.1f s" (now () -. t0);
  let failed =
    List.fold_left
      (fun acc r ->
        match r.result with
        | Ok p when Check.matches r.req p.Protocol.outcome -> acc
        | Ok _ ->
          Printf.eprintf "perfbench: request %d (%s) answered differently from the reference\n%!"
            r.req.id r.req.name;
          acc + 1
        | Error e ->
          Printf.eprintf "perfbench: request %d (%s) failed: %s\n%!" r.req.id r.req.name
            (Dse_error.to_string e);
          acc + 1)
      0 all
  in
  let attempted = List.length all in
  say "%s seed=%d: %d requests attempted, %d failed, fail_ratio=%g" !workload seed attempted failed
    (float_of_int failed /. float_of_int attempted);
  let mismatches, metrics =
    if !traced then
      per_layer ~seconds ~dir
        ~spans_path:(Filename.concat run_root (Printf.sprintf "spans-%s-seed%d.tsv" !workload seed))
        run
    else (0, end_to_end run)
  in
  let failed = failed + mismatches in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then begin
    Printf.eprintf "perfbench: logs kept in %s\n%!" dir;
    exit 1
  end;
  keep := false
