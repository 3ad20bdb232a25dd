(* The processes under test: `dse serve` daemons and `dse route`
   gateways spawned from the built binary, probed until they answer a
   ping, measured through /proc, and stopped with SIGTERM (SIGKILL after
   a grace period). Every spawned process is tracked so that an early
   exit still reaps it. *)

type proc = { pid : int; label : string; addr : string; log : string }

let dse = ref "dse"
let run_dir = ref "."
let live : proc list ref = ref []

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let spawn ~label ~addr args =
  let log = Filename.concat !run_dir (label ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process !dse (Array.of_list ("dse" :: args)) null out out in
  Unix.close out;
  Unix.close null;
  let p = { pid; label; addr; log } in
  live := p :: !live;
  p

let log_tail p =
  match In_channel.with_open_text p.log In_channel.input_all with
  | text ->
    let n = String.length text in
    if n <= 2000 then text else String.sub text (n - 2000) 2000
  | exception Sys_error _ -> ""

let exited p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let wait_ready p =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    match Client.ping ~socket:p.addr with
    | Ok () -> ()
    | Error e ->
      if exited p then
        failwith (Printf.sprintf "%s exited during start-up:\n%s" p.label (log_tail p))
      else if Unix.gettimeofday () > deadline then
        failwith
          (Printf.sprintf "%s (%s) did not answer a ping within 20 s: %s" p.label p.addr
             (Dse_error.to_string e))
      else begin
        Unix.sleepf 0.005;
        go ()
      end
  in
  go ()

(* A daemon with one worker domain. [port] adds a loopback TCP listener
   (0 picks a free port) so a gateway can reach it; without it the Unix
   socket is the address. *)
let serve ?port label =
  let sock = Filename.concat !run_dir (label ^ ".sock") in
  let tcp =
    Option.map
      (fun p -> Printf.sprintf "127.0.0.1:%d" (if p = 0 then free_port () else p))
      port
  in
  let addr = Option.value tcp ~default:sock in
  let args =
    [ "serve"; "--socket"; sock; "--workers"; "1"; "--node-id"; addr ]
    @ match tcp with Some a -> [ "--tcp"; a ] | None -> []
  in
  spawn ~label ~addr args

let route label backends =
  let addr = Printf.sprintf "127.0.0.1:%d" (free_port ()) in
  spawn ~label ~addr
    ([ "route"; "--listen"; addr; "--forwarders"; "2" ]
    @ List.concat_map (fun b -> [ "--backend"; b.addr ]) backends)

(* VmHWM: the process's resident-set high-water mark, in MiB. *)
let peak_rss_mb p =
  let prefix = "VmHWM:" in
  match open_in (Printf.sprintf "/proc/%d/status" p.pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
          | exception End_of_file -> 0.
        in
        scan ())

let reap pid ~grace =
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.005;
        go ()
      end
      else false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> true
  in
  go ()

(* A process that died on its own is reported with its log tail. *)
let stop p =
  live := List.filter (fun q -> q.pid <> p.pid) !live;
  if exited p then Printf.eprintf "perfbench: %s had exited:\n%s\n%!" p.label (log_tail p);
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (reap p.pid ~grace:5.) then begin
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap p.pid ~grace:5.)
  end

let stop_all () = List.iter stop !live

(* Daemon-side counters, summed over the daemons a run used. *)
type counters = {
  mutable kernel_runs : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable shed : int;
}

let counters () = { kernel_runs = 0; hits = 0; misses = 0; coalesced = 0; shed = 0 }

let add_health c p =
  match Client.health ~socket:p.addr with
  | Ok h ->
    c.kernel_runs <- c.kernel_runs + h.Protocol.jobs_completed;
    c.hits <- c.hits + h.Protocol.cache_hits;
    c.misses <- c.misses + h.Protocol.cache_misses;
    c.coalesced <- c.coalesced + h.Protocol.coalesced_hits;
    c.shed <- c.shed + h.Protocol.shed
  | Error e -> failwith (Printf.sprintf "health of %s: %s" p.label (Dse_error.to_string e))
