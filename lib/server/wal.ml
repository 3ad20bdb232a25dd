(* Per-record framing (one frame per record so a torn write damages at
   most that record), written and checked by [Codec.frame]:

     "DSEW" | version (1 byte) | payload length (LEB128) | payload
            | CRC-32 (4 bytes LE, over every preceding record byte)

   Payload layout: the cache key ([Codec.add_cache_key], the layout the
   protocol's replication verbs also use) | stats ([Codec.add_stats])
   | level count | per level: count | values... (LEB128 varints). *)

let magic = "DSEW"

let version = 1

(* -- encoding -- *)

let header = Printf.sprintf "%s%c" magic (Char.chr version)

(* Approx entries are deliberately not persisted: the record format is
   the exact histogram summary, and an approx profile is cheap to
   recompute from a resubmission (one streaming pass) — so a restarted
   daemon simply answers approx repeats cold. [None] means "nothing to
   write", and both the append path and compaction skip it. *)
let encode_record (key : Result_cache.key) (entry : Result_cache.entry) =
  match entry with
  | Result_cache.Approx _ -> None
  | Result_cache.Exact { stats; histograms } ->
    let payload = Buffer.create 256 in
    Codec.add_cache_key payload key;
    Codec.add_stats payload stats;
    Codec.add_varint payload (Array.length histograms);
    Array.iter
      (fun histogram ->
        Codec.add_varint payload (Array.length histogram);
        Array.iter (Codec.add_varint payload) histogram)
      histograms;
    Some (Codec.frame ~header (Buffer.contents payload))

(* -- decoding -- *)

(* Structural damage inside a record: skip it and resync on the next
   magic. *)
exception Bad

(* The record extends past end-of-file: either a torn tail (a crash
   mid-append) or length-field damage; disambiguated by whether another
   magic follows. *)
exception Short

(* What the paper's characterisation guarantees of any exact entry a
   kernel produced, checked before a CRC-valid record is believed:

   1. no level counts an occurrence with |C ∩ S| = 0 (index 0 is 0);
   2. a level's counts sum to at most the warm occurrences, N − N′;
   3. level 0 (one set: S holds everything) counts every warm
      occurrence with a non-empty conflict set, which is exactly the
      depth-1 direct-mapped non-cold misses, [max_misses];
   4. S at level l+1 is a subset of S at level l, so |C ∩ S| never
      grows with depth: misses at every associativity A, the tail
      sum over c >= A, are non-increasing in l.

   A record from a buggy peer or a stale encoder that breaks one of
   them would otherwise be served as exact and replicated onwards. *)
let consistent (stats : Stats.t) histograms =
  let warm = stats.Stats.n - stats.Stats.n_unique in
  (* check 2 before any tail sum, so the sums cannot overflow *)
  let bounded h =
    let sum = ref 0 in
    Array.for_all
      (fun v ->
        let ok = v <= warm - !sum in
        sum := !sum + v;
        ok)
      h
  in
  warm >= 0
  && Array.for_all (fun h -> Array.length h = 0 || h.(0) = 0) histograms
  && Array.for_all bounded histograms
  && (Array.length histograms = 0
     || Array.fold_left ( + ) 0 histograms.(0) = stats.Stats.max_misses)
  &&
  let tails = Array.map Optimizer.suffix_sums histograms in
  let misses l a = if a < Array.length tails.(l) then tails.(l).(a) else 0 in
  let rec monotone l =
    l + 1 >= Array.length tails
    || (let width = Array.length tails.(l + 1) in
        let rec ok a = a >= width || (misses (l + 1) a <= misses l a && ok (a + 1)) in
        ok 1 && monotone (l + 1))
  in
  monotone 0

let decode_entry payload =
  let c = Codec.of_string payload in
  let key = Codec.cache_key c in
  let stats = Codec.stats c in
  let level_count = Codec.varint c in
  (* each histogram contributes at least one byte, so a declared count
     beyond the payload is damage the CRC happened to miss *)
  if level_count > Codec.available c then raise Bad;
  let histograms =
    Array.init level_count (fun _ ->
        let count = Codec.varint c in
        if count > Codec.available c then raise Bad;
        Array.init count (fun _ -> Codec.varint c))
  in
  if not (Codec.at_end c && consistent stats histograms) then raise Bad;
  (key, Result_cache.Exact { stats; histograms })

let find_magic data pos =
  let len = String.length data in
  let rec go i =
    if i + String.length magic > len then None
    else if String.sub data i (String.length magic) = magic then Some i
    else go (i + 1)
  in
  go pos

(* Parse the record whose magic starts at [pos]; returns the decoded
   entry and the position just past its CRC footer. *)
let parse_record data pos =
  let c = Codec.of_string ~pos data in
  match
    Codec.expect_magic c magic;
    Codec.expect_version c ~what:"WAL" version;
    Codec.frame_payload c
  with
  | payload -> (
    match decode_entry payload with
    | entry -> (entry, Codec.offset c)
    | exception (Codec.Malformed _ | Codec.Truncated _) -> raise Bad)
  | exception Codec.Truncated _ -> raise Short
  | exception Codec.Malformed _ -> raise Bad

type replay = {
  entries : (Result_cache.key * Result_cache.entry) list;
  intact : int;
  damaged : int;
  truncated : bool;
}

let replay_string data =
  let len = String.length data in
  let entries = ref [] in
  let intact = ref 0 in
  let damaged = ref 0 in
  let truncated = ref false in
  let rec scan pos =
    if pos < len then
      match find_magic data pos with
      | None ->
        (* trailing bytes with no frame start: damage, not a torn
           record (a torn record keeps its magic) *)
        incr damaged
      | Some start ->
        if start > pos then incr damaged;
        (match parse_record data start with
        | entry_and_next ->
          let entry, next = entry_and_next in
          entries := entry :: !entries;
          incr intact;
          scan next
        | exception Bad ->
          incr damaged;
          scan (start + String.length magic)
        | exception Short -> (
          (* torn tail only if no later magic; otherwise the length
             field was damaged mid-file *)
          match find_magic data (start + String.length magic) with
          | Some next ->
            incr damaged;
            scan next
          | None -> truncated := true))
  in
  scan 0;
  { entries = List.rev !entries; intact = !intact; damaged = !damaged; truncated = !truncated }

(* One record as a standalone string — the Replicate verb's payload
   unit. Accepts exactly one whole well-formed record; anything else
   (damage, trailing bytes, a torn prefix) is [None], so a replication
   receiver can never be corrupted by a bad peer. *)
let decode_record data =
  if String.length data < String.length magic + 1 then None
  else if String.sub data 0 (String.length magic) <> magic then None
  else
    match parse_record data 0 with
    | (key, entry), next when next = String.length data -> Some (key, entry)
    | _ -> None
    | exception (Bad | Short) -> None

let replay path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok (replay_string data)
  | exception Sys_error _ when not (Sys.file_exists path) ->
    Ok { entries = []; intact = 0; damaged = 0; truncated = false }
  | exception Sys_error message -> Error (Dse_error.Io_error { file = path; message })
  | exception Unix.Unix_error (err, _, _) ->
    Error (Dse_error.Io_error { file = path; message = Unix.error_message err })

(* -- appending -- *)

type t = {
  path : string;
  capacity : int;
  compact_factor : int;
  snapshot : unit -> (Result_cache.key * Result_cache.entry) list;
  mutex : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable appended : int;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let guard ~path f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (err, _, _) ->
    Error (Dse_error.Io_error { file = path; message = Unix.error_message err })
  | exception Sys_error message -> Error (Dse_error.Io_error { file = path; message })

let open_append path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644

let open_ ?(compact_factor = 4) ~capacity ~snapshot path =
  if capacity < 1 then invalid_arg "Wal.open_: capacity must be >= 1";
  if compact_factor < 1 then invalid_arg "Wal.open_: compact_factor must be >= 1";
  guard ~path (fun () ->
      let fd = open_append path in
      { path; capacity; compact_factor; snapshot; mutex = Mutex.create (); fd; appended = 0 })

let write_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

(* The rename above made the compacted log the live one in the
   directory's in-memory state, but the directory entry itself is not
   durable until the directory inode is flushed: a power cut between
   rename and the next incidental directory sync could resurrect the
   pre-compaction log. Filesystems that refuse fsync on a directory fd
   (EINVAL, or EBADF once closed by a racing close) already order the
   rename themselves, so those are safe to ignore. *)
let fsync_parent_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dir_fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dir_fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Unix.fsync dir_fd with Unix.Unix_error ((Unix.EINVAL | Unix.EBADF), _, _) -> ())

(* Rewrite the log as the live snapshot: temp file, fsync, atomic
   rename, parent-directory fsync — a crash leaves either the old log
   or the new one, durably. *)
let compact_locked t =
  let entries = t.snapshot () in
  let tmp = t.path ^ ".compact" in
  let tmp_fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close tmp_fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun (key, entry) ->
          match encode_record key entry with
          | Some record -> write_all tmp_fd record
          | None -> ())
        entries;
      Unix.fsync tmp_fd);
  Unix.rename tmp t.path;
  fsync_parent_dir t.path;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- open_append t.path;
  t.appended <- 0

let append t key entry =
  match encode_record key entry with
  | None -> Ok () (* approx entries are not persisted *)
  | Some record ->
    with_lock t (fun () ->
        guard ~path:t.path (fun () ->
            write_all t.fd record;
            t.appended <- t.appended + 1;
            if t.appended >= t.compact_factor * t.capacity then compact_locked t))

(* On-demand compaction: replica GC removes entries from the cache, and
   rewriting the log from the post-GC snapshot is what removes them from
   disk — otherwise a decommissioned key range would be resurrected by
   the next replay. *)
let compact t = with_lock t (fun () -> guard ~path:t.path (fun () -> compact_locked t))

let appended_since_compact t = with_lock t (fun () -> t.appended)

let path t = t.path

let close t = with_lock t (fun () -> try Unix.close t.fd with Unix.Unix_error _ -> ())
