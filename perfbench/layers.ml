(* The traced run's in-process replay. Each request's path through the
   daemon is re-enacted by calling the layer's public function from here
   and timing the call: frame encode and decode ([Protocol], through a
   file so each side is timed alone), fingerprint, result-cache lookup, prelude and kernel on a miss, the postlude answer, and the
   reply frame. Spans carry the request id, stay in memory, and are
   written out when the run ends. *)

type span = { rid : int; stage : string; ms : float; on_path : bool }

type t = {
  fd : Unix.file_descr;
  mutable cache : Result_cache.t;
  mutable spans : span list;
  mutable frame_bytes : float list;
  mutable mismatches : int;
}

let create ~dir =
  let fd =
    Unix.openfile (Filename.concat dir "frame.bin") [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  { fd; cache = Result_cache.create (); spans = []; frame_bytes = []; mismatches = 0 }

let reset_cache t = t.cache <- Result_cache.create ()

let time t rid ?(on_path = true) stage f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  t.spans <- { rid; stage; ms = (Unix.gettimeofday () -. t0) *. 1000.; on_path } :: t.spans;
  v

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Dse_error.to_string e))

let rewind fd = ignore (Unix.lseek fd 0 Unix.SEEK_SET)

let truncate fd =
  Unix.ftruncate fd 0;
  rewind fd

let method_spec approx = if approx then Protocol.Approx else Protocol.Exact Analytical.Arena

let key ~approx fingerprint =
  {
    Result_cache.fingerprint;
    method_tag = Protocol.method_spec_tag (method_spec approx);
    domains = 1;
    max_level = -1;
  }

(* Replays one request; [reply] is the daemon's answer to the same
   request, which the in-process outcome must equal. *)
let replay t (r : Workloads.req) reply =
  let rid = r.id in
  let submit =
    Protocol.Submit
      {
        name = r.name;
        trace = Protocol.Full r.trace;
        query = r.query;
        method_ = method_spec r.approx;
        domains = 1;
        max_level = None;
        deadline = None;
      }
  in
  truncate t.fd;
  time t rid "protocol.encode" (fun () -> ok "encode" (Protocol.write_request t.fd submit));
  t.frame_bytes <- float_of_int (Unix.lseek t.fd 0 Unix.SEEK_CUR) :: t.frame_bytes;
  let decode ?on_path ~sketch_approx stage =
    rewind t.fd;
    match time t rid ?on_path stage (fun () -> Protocol.read_request ~sketch_approx t.fd) with
    | Ok (Some (Protocol.Submit { trace; _ })) -> trace
    | Ok _ -> failwith "decode: not a submission"
    | Error e -> failwith ("decode: " ^ Dse_error.to_string e)
  in
  (* The daemon decodes an approx frame straight into a sketch, which
     carries the fingerprint: that one call is the [sketch] span. The
     plain decode of the same frame is timed off the path, so the
     sketch's own share is the difference. An exact submission is
     decoded, then fingerprinted. *)
  let decoded = decode ~sketch_approx:r.approx (if r.approx then "sketch" else "protocol.decode") in
  let fingerprint =
    match decoded with
    | Protocol.Sketched p ->
      ignore (decode ~on_path:false ~sketch_approx:false "protocol.decode");
      p.Sketch.fingerprint
    | Protocol.Full trace -> time t rid "trace.fingerprint" (fun () -> Trace.fingerprint trace)
  in
  let key = key ~approx:r.approx fingerprint in
  let found = time t rid "result_cache.find" (fun () -> Result_cache.find t.cache key) in
  let entry =
    match (found, decoded) with
    | Some entry, Protocol.Sketched p ->
      (* off the path: the answer below re-prepares inside answer_entry *)
      ignore (time t rid ~on_path:false "approx.prepare" (fun () -> Approx_dse.prepare p));
      entry
    | Some entry, Protocol.Full _ -> entry
    | None, Protocol.Sketched p ->
      ignore (time t rid "approx.prepare" (fun () -> Approx_dse.prepare p));
      let entry = Result_cache.Approx p in
      Result_cache.store t.cache key entry;
      entry
    | None, Protocol.Full trace ->
      let prepared = time t rid "analytical.prepare" (fun () -> Analytical.prepare trace) in
      let histograms = time t rid "arena.kernel" (fun () -> Analytical.histograms prepared) in
      let entry = Result_cache.Exact { stats = Analytical.stats prepared; histograms } in
      Result_cache.store t.cache key entry;
      entry
  in
  let stage =
    match (entry, r.query) with
    | Result_cache.Approx _, _ -> "approx.answer"
    | Result_cache.Exact _, Protocol.Percents _ -> "postlude.table"
    | Result_cache.Exact _, Protocol.Budget _ -> "postlude.budget"
  in
  let outcome =
    time t rid stage (fun () ->
        Protocol.answer_entry ~name:r.name ~query:r.query ~max_level:None entry)
  in
  truncate t.fd;
  ignore
    (time t rid "protocol.reply" (fun () ->
         ok "reply"
           (Protocol.write_response t.fd
              (Protocol.Result { outcome; cache_hit = Option.is_some found }));
         rewind t.fd;
         ok "reply" (Protocol.read_response t.fd)));
  if compare outcome reply <> 0 then t.mismatches <- t.mismatches + 1

(* Per request: the sum of its on-path spans, in ms. *)
let path_sums t =
  let sums = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.on_path then
        Hashtbl.replace sums s.rid (s.ms +. Option.value (Hashtbl.find_opt sums s.rid) ~default:0.))
    t.spans;
  sums

let durations t stage =
  Array.of_list (List.filter_map (fun s -> if s.stage = stage then Some s.ms else None) t.spans)

(* Stage times are reported as the mean per call — the layer's busy
   time over its calls — so a heavy tail (one large trace's postlude)
   shows even when the typical request is cheap. *)
let mean_ms t stage = Quantile.mean (durations t stage)

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "request\tstage\tms\ton_path\n";
      List.iter
        (fun s -> Printf.fprintf oc "%d\t%s\t%.6f\t%b\n" s.rid s.stage s.ms s.on_path)
        (List.rev t.spans))
