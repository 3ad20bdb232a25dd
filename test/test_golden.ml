(* Byte-exact pins of the three binary formats: one DSRV Submit frame
   (protocol v7), one DSEW record (WAL v1) and one DSEB file (binary
   trace v2). The hex was produced by the encoders as they stood before
   the formats shared one codec; any change to a layout, a varint, a
   record tag or a footer shows up here as a diff. Only the public
   encoders and decoders are used. *)

let check_string = Alcotest.(check string)

let check_bool = Alcotest.(check bool)

let hex s = String.fold_left (fun acc ch -> acc ^ Printf.sprintf "%02x" (Char.code ch)) "" s

let unhex h =
  String.init (String.length h / 2) (fun i -> Scanf.sscanf (String.sub h (2 * i) 2) "%x" Char.chr)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Dse_error.to_string e)

(* every kind, and the largest address a record can carry (2^60 - 1) in
   each of them *)
let accesses =
  let top = (1 lsl 60) - 1 in
  [ (0, Trace.Fetch); (0x40, Trace.Read); (0x7f, Trace.Write); (top, Trace.Fetch);
    (top, Trace.Read); (top, Trace.Write); ((1 lsl 59) + 300, Trace.Read) ]

let trace () =
  let t = Trace.create () in
  List.iter (fun (addr, kind) -> Trace.add t ~addr ~kind) accesses;
  t

let accesses_of t =
  List.init (Trace.length t) (fun i -> (Trace.addr t i, Trace.kind t i))

let submit_hex =
  "4453525607014406676f6c64656e0302010301000000000000f83f0003050ac80107008102fe03\
   fcffffffffffffff3ffdffffffffffffff3ffeffffffffffffff3fb18980808080808020ddecc7cb"

let wal_hex =
  "445345570120efcdab896745238103010090030a0cc801040300960132030082010202000100489b36e8"

let trace_hex =
  "445345420207008102fe03fcffffffffffffff3ffdffffffffffffff3f\
   feffffffffffffff3fb18980808080808020bb20ab95"

let test_submit_frame () =
  let path = Filename.temp_file "dse_golden" ".bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_TRUNC ] 0o600 in
  ok
    (Protocol.write_request fd
       (Protocol.Submit
          { name = "golden"; trace = Protocol.Full (trace ());
            query = Protocol.Percents [ 5; 10; 200 ]; method_ = Protocol.Exact Analytical.Arena;
            domains = 2; max_level = Some 3; deadline = Some 1.5 }));
  check_string "frame bytes" submit_hex (hex (read_all path));
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let decoded = ok (Protocol.read_request fd) in
  Unix.close fd;
  Sys.remove path;
  match decoded with
  | Some (Protocol.Submit { name; trace = Protocol.Full t; query; domains; max_level; deadline; _ })
    ->
    check_bool "decodes back" true
      (name = "golden" && accesses_of t = accesses && query = Protocol.Percents [ 5; 10; 200 ]
      && domains = 2 && max_level = Some 3 && deadline = Some 1.5)
  | _ -> Alcotest.fail "not the submission"

let test_wal_record () =
  let key =
    { Result_cache.fingerprint = 0x8123456789abcdefL; method_tag = 3; domains = 1; max_level = -1 }
  in
  let entry =
    Result_cache.Exact
      {
        stats = { Stats.n = 400; n_unique = 10; address_bits = 12; max_misses = 200 };
        histograms = [| [| 0; 150; 50 |]; [| 0; 130; 2 |]; [| 0; 1 |]; [||] |];
      }
  in
  match Wal.encode_record key entry with
  | None -> Alcotest.fail "exact entry not encoded"
  | Some record ->
    check_string "record bytes" wal_hex (hex record);
    check_bool "decodes back" true (Wal.decode_record (unhex wal_hex) = Some (key, entry))

let test_binary_trace () =
  let path = Filename.temp_file "dse_golden" ".bin" in
  ok (Trace_io.save_binary path (trace ()));
  check_string "file bytes" trace_hex (hex (read_all path));
  check_bool "loads back" true (accesses_of (Trace_io.load_binary_exn path) = accesses);
  Sys.remove path

let suites =
  [
    ( "golden",
      [
        Alcotest.test_case "DSRV submit frame" `Quick test_submit_frame;
        Alcotest.test_case "DSEW record" `Quick test_wal_record;
        Alcotest.test_case "DSEB trace file" `Quick test_binary_trace;
      ] );
  ]
