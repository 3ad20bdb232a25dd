(* Tests for the shared wire codec: varints over the whole non-negative
   range, 8-byte fields with the top bit set, trace records at the
   largest encodable address in every kind (test_golden carries them
   through a frame and a file), and the damage contract of the WAL
   record — every strict prefix and every single-byte flip is refused,
   never a raw exception (server:protocol damage detection sweeps a
   DSRV frame the same way). *)

let check_bool = Alcotest.(check bool)

let prop ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let encode f v =
  let buf = Buffer.create 16 in
  f buf v;
  Buffer.contents buf

(* -- varints -- *)

let gen_natural =
  QCheck2.Gen.(
    oneof [ int_bound 300; int_range 0 max_int; map (fun b -> (1 lsl b) - 1) (int_range 1 62) ])

let prop_varint_roundtrip =
  prop "varint round trip, 0 .. max_int" gen_natural (fun v ->
      let c = Codec.of_string (encode Codec.add_varint v) in
      Codec.varint c = v && Codec.at_end c)

let prop_varint_rejects_negative =
  prop "negative varints rejected"
    QCheck2.Gen.(int_range min_int (-1))
    (fun v ->
      match encode Codec.add_varint v with
      | _ -> false
      | exception Invalid_argument _ -> true)

let test_varint_overflow () =
  let malformed s =
    match Codec.varint (Codec.of_string s) with
    | _ -> false
    | exception Codec.Malformed (0, _) -> true
  in
  check_bool "max_int is 9 bytes" true (String.length (encode Codec.add_varint max_int) = 9);
  (* 63 value bits set: past max_int *)
  check_bool "sign bit" true (malformed "\xff\xff\xff\xff\xff\xff\xff\xff\x7f");
  check_bool "ten bytes" true (malformed "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01");
  check_bool "cut short" true
    (match Codec.varint (Codec.of_string "\x80\x80") with
    | _ -> false
    | exception Codec.Truncated 2 -> true)

(* -- 8-byte fields and cache keys -- *)

let gen_top_bit_int64 =
  QCheck2.Gen.(map (fun v -> Int64.logor Int64.min_int (Int64.of_int v)) (int_range 0 max_int))

let prop_i64_top_bit =
  prop "fingerprints with the top bit set round-trip"
    QCheck2.Gen.(pair gen_top_bit_int64 (int_bound 5))
    (fun (fingerprint, max_level) ->
      let key = { Codec.fingerprint; method_tag = 3; domains = 1; max_level = max_level - 1 } in
      let bits = encode Codec.add_i64 fingerprint in
      String.length bits = 8
      && Codec.i64 (Codec.of_string bits) = fingerprint
      && Codec.cache_key (Codec.of_string (encode Codec.add_cache_key key)) = key)

let test_f64_bits () =
  List.iter
    (fun v ->
      let back = Codec.f64 (Codec.of_string (encode Codec.add_f64 v)) in
      check_bool (Printf.sprintf "%h" v) true (Int64.bits_of_float back = Int64.bits_of_float v))
    [ 0.; -0.; 1.5; -1e300; Float.nan; Float.infinity; Float.min_float ]

(* -- trace records -- *)

let kinds = [ Trace.Fetch; Trace.Read; Trace.Write ]

let test_records_at_the_top () =
  List.iter
    (fun kind ->
      List.iter
        (fun addr ->
          let r = Codec.record ~addr ~kind in
          let back = Codec.read_record (Codec.of_string (encode Codec.add_varint r)) in
          check_bool "valid" true (Codec.record_valid back);
          check_bool "address" true (Codec.record_addr back = addr);
          check_bool "kind" true (Codec.record_kind back = kind))
        [ 0; 1 lsl 59; Codec.max_addr ])
    kinds;
  check_bool "max_addr is 2^60 - 1" true (Codec.max_addr = (1 lsl 60) - 1);
  List.iter
    (fun addr ->
      check_bool "unencodable address refused" true
        (match Codec.record ~addr ~kind:Trace.Read with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ -1; Codec.max_addr + 1; 1 lsl 61 ];
  check_bool "unencodable address is a typed error on the wire" true
    (let read_end, write_end = Unix.pipe () in
     let t = Trace.of_addresses [| Codec.max_addr + 1 |] in
     let r =
       Protocol.write_request write_end
         (Protocol.Submit
            { name = "big"; trace = Protocol.Full t; query = Protocol.Budget 0;
              method_ = Protocol.Exact Analytical.Arena; domains = 1; max_level = None;
              deadline = None })
     in
     Unix.close read_end;
     Unix.close write_end;
     match r with Error (Dse_error.Constraint_violation _) -> true | _ -> false);
  check_bool "tag 3 refused" true
    (match Codec.read_record (Codec.of_string "\x07") with
    | _ -> false
    | exception Codec.Malformed (0, reason) -> reason = Codec.bad_record)

(* -- the record loops allocate nothing per record -- *)

(* Decoding 100k records from a submission frame or a binary trace file
   costs a bounded number of minor-heap words, not a few per record. *)
let test_record_loops_allocate_nothing () =
  let n = 100_000 in
  let trace = Trace.of_addresses (Array.init n (fun i -> (i * 7919) land 0xFFFFF)) in
  let path = Filename.temp_file "dse_codec" ".bin" in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_TRUNC ] 0o600 in
  check_bool "written" true
    (Protocol.write_request fd
       (Protocol.Submit
          { name = "alloc"; trace = Protocol.Full trace; query = Protocol.Budget 0;
            method_ = Protocol.Exact Analytical.Arena; domains = 1; max_level = None;
            deadline = None })
    = Ok ());
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let words = minor_words (fun () -> ignore (Protocol.read_request fd)) in
  Unix.close fd;
  check_bool (Printf.sprintf "frame decode: %.0f words" words) true (words < float_of_int n);
  (match Trace_io.save_binary path trace with Ok () -> () | Error _ -> Alcotest.fail "save");
  let words =
    minor_words (fun () -> ignore (Trace_io.iter ~format:`Binary path (fun ~addr:_ ~kind:_ -> ())))
  in
  check_bool (Printf.sprintf "file scan: %.0f words" words) true (words < float_of_int n);
  Sys.remove path

(* -- damage -- *)

let test_dsew_damage () =
  let key =
    { Result_cache.fingerprint = Int64.min_int; method_tag = 3; domains = 1; max_level = 5 }
  in
  let entry =
    Result_cache.Exact
      {
        stats = { Stats.n = 50; n_unique = 8; address_bits = 6; max_misses = 30 };
        histograms = [| [| 0; 20; 10 |]; [| 0; 12; 3 |]; [| 0; 2 |] |];
      }
  in
  let record = Option.get (Wal.encode_record key entry) in
  check_bool "intact record decodes" true (Wal.decode_record record = Some (key, entry));
  let refused label s =
    match Wal.decode_record s with
    | None -> ()
    | Some _ -> Alcotest.failf "%s accepted" label
    | exception e -> Alcotest.failf "%s raised %s" label (Printexc.to_string e)
  in
  String.iteri
    (fun i ch ->
      refused (Printf.sprintf "prefix of %d bytes" i) (String.sub record 0 i);
      refused (Printf.sprintf "flip at byte %d" i)
        (String.mapi (fun j x -> if i = j then Char.chr (Char.code ch lxor 0xA5) else x) record))
    record

let suites =
  [
    ( "codec",
      [
        prop_varint_roundtrip;
        prop_varint_rejects_negative;
        Alcotest.test_case "varint overflow" `Quick test_varint_overflow;
        prop_i64_top_bit;
        Alcotest.test_case "f64 bits" `Quick test_f64_bits;
        Alcotest.test_case "records at the top address" `Quick test_records_at_the_top;
        Alcotest.test_case "record loops allocate nothing" `Quick test_record_loops_allocate_nothing;
        Alcotest.test_case "DSEW prefixes and flips" `Quick test_dsew_damage;
      ] );
  ]
