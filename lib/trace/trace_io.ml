type on_error = Fail | Skip | Stop_after of int

type ingest = { trace : Trace.t; skipped : int; errors : Dse_error.t list }

type stream = { refs : int; skipped : int; errors : Dse_error.t list }

type format = [ `Text | `Binary | `Dinero ]

let max_reported_errors = 5

let max_line_length = 4096

(* Tolerated-error accounting shared by every lenient reader. *)
type tally = { mutable skipped : int; mutable noted : Dse_error.t list }

let note tally err =
  tally.skipped <- tally.skipped + 1;
  if tally.skipped <= max_reported_errors then tally.noted <- err :: tally.noted

(* [tolerate mode tally err] decides whether [err] is absorbed (skipped
   and counted) or aborts the read. *)
let tolerate mode tally err =
  match mode with
  | Fail -> Error err
  | Skip ->
    note tally err;
    Ok ()
  | Stop_after n ->
    if tally.skipped >= n then Error err
    else begin
      note tally err;
      Ok ()
    end

(* -- text format -- *)

let write channel trace =
  Trace.iter
    (fun (a : Trace.access) ->
      let letter =
        match a.kind with Trace.Fetch -> 'F' | Trace.Read -> 'R' | Trace.Write -> 'W'
      in
      Printf.fprintf channel "%c 0x%x\n" letter a.addr)
    trace

(* Text parsers feed a sink callback rather than a trace, so the same
   grammar serves both the materialising readers below and the one-pass
   [scan]/[iter] path (where the sink is a sketch, never an array). *)
let parse_line ~file ~line_number line sink =
  let fail message = Error (Dse_error.Parse_error { file; line = line_number; message }) in
  if String.length line > max_line_length then
    fail (Printf.sprintf "line exceeds %d bytes" max_line_length)
  else
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok ()
    else
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ k; a ] -> (
        let kind =
          match k with
          | "F" | "f" -> Ok Trace.Fetch
          | "R" | "r" -> Ok Trace.Read
          | "W" | "w" -> Ok Trace.Write
          | _ -> fail (Printf.sprintf "unknown access kind %S" k)
        in
        match kind with
        | Error _ as e -> e
        | Ok kind -> (
          match int_of_string_opt a with
          | Some v when v >= 0 ->
            sink ~addr:v ~kind;
            Ok ()
          | Some _ -> fail "negative address"
          | None -> fail (Printf.sprintf "bad address %S" a)))
      | _ -> fail "expected '<kind> <address>'"

let scan_lines ~parse ~on_error ~file channel sink =
  let tally = { skipped = 0; noted = [] } in
  let refs = ref 0 in
  let sink ~addr ~kind =
    incr refs;
    sink ~addr ~kind
  in
  let rec loop line_number =
    match input_line channel with
    | exception End_of_file ->
      Ok { refs = !refs; skipped = tally.skipped; errors = List.rev tally.noted }
    | line -> (
      match parse ~file ~line_number line sink with
      | Ok () -> loop (line_number + 1)
      | Error err -> (
        match tolerate on_error tally err with
        | Ok () -> loop (line_number + 1)
        | Error _ as e -> e))
  in
  loop 1

let read_lines ~parse ~on_error ~file channel =
  let trace = Trace.create () in
  match
    scan_lines ~parse ~on_error ~file channel (fun ~addr ~kind -> Trace.add trace ~addr ~kind)
  with
  | Ok s -> Ok { trace; skipped = s.skipped; errors = s.errors }
  | Error _ as e -> e

let read ?(on_error = Fail) ?(file = "<channel>") channel =
  read_lines ~parse:parse_line ~on_error ~file channel

(* -- file-path plumbing -- *)

(* [Sys_error] messages already lead with the file name; strip it so
   [Io_error]'s own file field doesn't print it twice *)
let io_error path message =
  let prefix = path ^ ": " in
  let message =
    if String.starts_with ~prefix message then
      String.sub message (String.length prefix) (String.length message - String.length prefix)
    else message
  in
  Dse_error.Io_error { file = path; message }

let with_in opener path f =
  match opener path with
  | exception Sys_error message -> Error (io_error path message)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try f ic
        with Sys_error message -> Error (io_error path message))

let with_out opener path f =
  match opener path with
  | exception Sys_error message -> Error (io_error path message)
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        try Ok (f oc)
        with Sys_error message -> Error (io_error path message))

let load ?on_error path = with_in open_in path (fun ic -> read ?on_error ~file:path ic)

let save path trace = with_out open_out path (fun oc -> write oc trace)

(* -- binary format --

   v1 (legacy, still readable): "DSET", the length as LEB128, then one
   LEB128 record per access of (addr lsl 2) lor kind_tag.

   v2 (what the writer emits): "DSEB", a version byte (2), the same
   length + records, then a CRC-32 footer (4 bytes little-endian) over
   every preceding byte. Truncation and bit-rot are detected
   deterministically instead of surfacing as a bogus varint. Varints,
   records and the footer are {!Codec}'s, shared with the protocol and
   the WAL. *)

let magic_v1 = "DSET"

let magic_v2 = "DSEB"

let binary_version = 2

(* Streaming v2 writer: the record count must be declared up front (the
   format leads with it), but the records themselves are produced by a
   callback — a synthetic generator can emit a 10^8-reference file
   without ever holding a trace. Records are staged in a buffer that is
   folded into the CRC and flushed every 64 KiB. Raises
   [Invalid_argument] if the producer emits a different number of
   records than declared, since the file would otherwise be structurally
   corrupt, or an address {!Codec.record} cannot encode. *)
let write_binary_stream channel ~length produce =
  if length < 0 then invalid_arg "Trace_io.write_binary_stream: negative length";
  let buf = Buffer.create 65536 in
  let crc = ref Crc32.init in
  let flush () =
    let chunk = Buffer.contents buf in
    crc := Crc32.update_string !crc chunk;
    output_string channel chunk;
    Buffer.clear buf
  in
  Buffer.add_string buf magic_v2;
  Buffer.add_char buf (Char.chr binary_version);
  Codec.add_varint buf length;
  let written = ref 0 in
  let emit ~addr ~kind =
    incr written;
    Codec.add_varint buf (Codec.record ~addr ~kind);
    if Buffer.length buf >= 65536 then flush ()
  in
  produce emit;
  if !written <> length then
    invalid_arg
      (Printf.sprintf "Trace_io.write_binary_stream: declared %d records, produced %d" length
         !written);
  flush ();
  Codec.add_crc buf !crc;
  Buffer.output_buffer channel buf

let write_binary channel trace =
  write_binary_stream channel ~length:(Trace.length trace) (fun emit ->
      Trace.iter (fun (a : Trace.access) -> emit ~addr:a.Trace.addr ~kind:a.Trace.kind) trace)

let scan_binary ~on_error ~file channel sink =
  let c = Codec.reader (input channel) in
  let refs = ref 0 in
  let tally = { skipped = 0; noted = [] } in
  let drained () = { refs = !refs; skipped = tally.skipped; errors = List.rev tally.noted } in
  let corrupt ~offset message = Dse_error.Corrupt_binary { file; offset; message } in
  let rec read_records k =
    if k = 0 then Ok ()
    else
      let start = Codec.offset c in
      let r = Codec.varint c in
      if Codec.record_valid r then begin
        incr refs;
        sink ~addr:(Codec.record_addr r) ~kind:(Codec.record_kind r);
        read_records (k - 1)
      end
      else
        match tolerate on_error tally (corrupt ~offset:start Codec.bad_record) with
        | Ok () -> read_records (k - 1)
        | Error _ as e -> e
  in
  let go () =
    let header = Codec.take c 4 in
    let version =
      if header = magic_v1 then 1
      else if header = magic_v2 then begin
        Codec.expect_version c ~what:"binary" binary_version;
        binary_version
      end
      else raise (Codec.Malformed (0, "bad magic"))
    in
    let length_offset = Codec.offset c in
    let length = Codec.varint c in
    (* each record is at least one byte, so a declared length beyond the
       remaining file size is corruption — caught before any attempt to
       allocate or parse that many records (pipes skip the check) *)
    (match (in_channel_length channel, pos_in channel) with
    | total, read ->
      let left = total - read + Codec.available c - (if version = 2 then 4 else 0) in
      if length > left then
        raise
          (Codec.Malformed
             ( length_offset,
               Printf.sprintf "declared length %d exceeds the %d remaining bytes" length
                 (max 0 left) ))
    | exception Sys_error _ -> ());
    match read_records length with
    | Error _ as e -> e
    | Ok () ->
      if version = 2 then begin
        Codec.check_crc c;
        if not (Codec.at_end c) then
          raise (Codec.Malformed (Codec.offset c, "trailing bytes after the CRC footer"))
      end;
      Ok (drained ())
  in
  (* structural damage: in lenient modes keep what parsed (no resync is
     possible after a broken varint), in [Fail] abort *)
  let salvage err =
    match tolerate on_error tally err with
    | Ok () -> Ok (drained ())
    | Error _ as e -> e
  in
  match go () with
  | result -> result
  | exception Codec.Malformed (offset, message) -> salvage (corrupt ~offset message)
  | exception Codec.Truncated offset -> salvage (corrupt ~offset "unexpected end of file")

let read_binary ?(on_error = Fail) ?(file = "<channel>") channel =
  let trace = Trace.create () in
  match
    scan_binary ~on_error ~file channel (fun ~addr ~kind -> Trace.add trace ~addr ~kind)
  with
  | Ok s -> Ok { trace; skipped = s.skipped; errors = s.errors }
  | Error _ as e -> e

let load_binary ?on_error path =
  with_in open_in_bin path (fun ic -> read_binary ?on_error ~file:path ic)

let save_binary path trace = with_out open_out_bin path (fun oc -> write_binary oc trace)

(* -- Dinero/din format: "<label> <hex-addr>"; labels 0 read, 1 write, 2
   instruction fetch -- *)

let parse_dinero_line ~file ~line_number line sink =
  let fail message = Error (Dse_error.Parse_error { file; line = line_number; message }) in
  if String.length line > max_line_length then
    fail (Printf.sprintf "line exceeds %d bytes" max_line_length)
  else
    let line = String.trim line in
    if line = "" then Ok ()
    else
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ l; a ] -> (
        let kind =
          match l with
          | "0" -> Ok Trace.Read
          | "1" -> Ok Trace.Write
          | "2" -> Ok Trace.Fetch
          | _ -> fail (Printf.sprintf "unknown label %S" l)
        in
        match kind with
        | Error _ as e -> e
        | Ok kind -> (
          match int_of_string_opt ("0x" ^ a) with
          | Some v when v >= 0 ->
            sink ~addr:v ~kind;
            Ok ()
          | Some _ | None -> (
            (* some din files already carry a 0x prefix *)
            match int_of_string_opt a with
            | Some v when v >= 0 ->
              sink ~addr:v ~kind;
              Ok ()
            | Some _ | None -> fail (Printf.sprintf "bad address %S" a))))
      | _ -> fail "expected '<label> <address>'"

let read_dinero ?(on_error = Fail) ?(file = "<channel>") channel =
  read_lines ~parse:parse_dinero_line ~on_error ~file channel

let load_dinero ?on_error path =
  with_in open_in path (fun ic -> read_dinero ?on_error ~file:path ic)

(* -- one-pass streaming -- *)

let scan ?(on_error = Fail) ?(file = "<channel>") ?(format = `Text) channel sink =
  match format with
  | `Text -> scan_lines ~parse:parse_line ~on_error ~file channel sink
  | `Dinero -> scan_lines ~parse:parse_dinero_line ~on_error ~file channel sink
  | `Binary -> scan_binary ~on_error ~file channel sink

let iter ?on_error ?(format = `Text) path sink =
  let opener = match format with `Binary -> open_in_bin | `Text | `Dinero -> open_in in
  with_in opener path (fun ic -> scan ?on_error ~file:path ~format ic sink)

(* -- raising conveniences -- *)

let trace_exn = function Ok i -> i.trace | Error e -> Dse_error.fail e

let load_exn ?on_error path = trace_exn (load ?on_error path)

let load_binary_exn ?on_error path = trace_exn (load_binary ?on_error path)

let load_dinero_exn ?on_error path = trace_exn (load_dinero ?on_error path)
