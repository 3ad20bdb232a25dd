(* Tests for the sequential boxed streaming kernel: bit-identical to the
   BCAT walk over the materialized MRCT, exact against the reference
   simulator, and well-behaved on degenerate traces; plus the analytical
   facade's defaults. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let prop ?(count = 120) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_addresses = QCheck2.Gen.(array_size (int_range 1 250) (int_bound 127))

let gen_line_words = QCheck2.Gen.map (fun k -> 1 lsl k) (QCheck2.Gen.int_bound 3)

let bcat_walk_histograms prepared = Analytical.histograms ~method_:Analytical.Bcat_walk prepared

(* -- equivalence with the BCAT walk -- *)

let test_streaming_paper () =
  let prepared = Analytical.prepare (Paper_example.trace ()) in
  let stripped = Analytical.stripped prepared in
  let max_level = Analytical.max_level prepared in
  let streamed = Streaming.histograms stripped ~max_level in
  Alcotest.(check bool) "histograms identical" true (streamed = bcat_walk_histograms prepared);
  let result = Optimizer.of_histograms ~k:0 streamed in
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 5); (2, 3); (4, 2); (8, 2); (16, 1) ]
    (Optimizer.optimal_pairs result)

let prop_streaming_equals_bcat_walk =
  prop "streaming histograms = BCAT-walk histograms (random line_words)"
    QCheck2.Gen.(pair gen_addresses gen_line_words)
    (fun (addrs, line_words) ->
      let prepared = Analytical.prepare ~line_words (Trace.of_addresses addrs) in
      Streaming.histograms (Analytical.stripped prepared) ~max_level:(Analytical.max_level prepared)
      = bcat_walk_histograms prepared)

(* -- three-way exactness: streaming = BCAT walk = simulator -- *)

let prop_streaming_exact_vs_simulator =
  prop ~count:150 "streaming misses = BCAT-walk misses = simulated LRU non-cold misses"
    QCheck2.Gen.(
      quad gen_addresses (map (fun k -> 1 lsl k) (int_bound 5)) (int_range 1 6) gen_line_words)
    (fun (addrs, depth, associativity, line_words) ->
      QCheck2.assume (Array.length addrs > 0);
      let trace = Trace.of_addresses addrs in
      let prepared = Analytical.prepare ~line_words trace in
      let depth = min depth (1 lsl Analytical.max_level prepared) in
      let streaming =
        Analytical.misses ~method_:Analytical.Streaming prepared ~depth ~associativity
      in
      let walk =
        Analytical.misses ~method_:Analytical.Bcat_walk prepared ~depth ~associativity
      in
      let sim =
        (Cache.simulate (Config.make ~line_words ~depth ~associativity ()) trace).Cache.misses
      in
      streaming = walk && streaming = sim)

let prop_explore_methods_agree =
  prop ~count:80 "explore: streaming = bcat walk" gen_addresses (fun addrs ->
      QCheck2.assume (Array.length addrs > 0);
      let prepared = Analytical.prepare (Trace.of_addresses addrs) in
      let pairs method_ =
        Optimizer.optimal_pairs (Analytical.explore_prepared ~method_ prepared ~k:7)
      in
      pairs Analytical.Streaming = pairs Analytical.Bcat_walk)

(* -- edge cases -- *)

let test_streaming_empty_trace () =
  let stripped = Strip.strip (Trace.create ()) in
  let hists = Streaming.histograms stripped ~max_level:3 in
  check_int "levels" 4 (Array.length hists);
  Array.iter (fun h -> Alcotest.(check (array int)) "empty level" [| 0 |] h) hists

let test_streaming_single_ref () =
  let stripped = Strip.strip_addresses [| 42 |] in
  let max_level = Strip.address_bits stripped in
  let hists = Streaming.histograms stripped ~max_level in
  Array.iter (fun h -> Alcotest.(check (array int)) "cold only" [| 0 |] h) hists;
  check_int "no non-cold misses" 0 (Streaming.misses stripped ~level:0 ~associativity:1)

let test_streaming_repeated_single_address () =
  (* every occurrence after the first is warm with an empty conflict set:
     no misses at any depth or associativity *)
  let stripped = Strip.strip_addresses (Array.make 1000 5) in
  let hists = Streaming.histograms stripped ~max_level:2 in
  Array.iter (fun h -> Alcotest.(check (array int)) "no conflicts" [| 0 |] h) hists

let test_streaming_rejects_negative_level () =
  Alcotest.check_raises "negative max_level" (Invalid_argument "Streaming: negative max_level")
    (fun () -> ignore (Streaming.histograms (Strip.strip_addresses [| 1 |]) ~max_level:(-1)))

(* -- the analytical facade defaults to the arena method -- *)

let test_facade_default_is_arena () =
  let trace = Paper_example.trace () in
  let prepared = Analytical.prepare trace in
  ignore (Analytical.explore_prepared prepared ~k:0);
  check_bool "boxed strip not forced by default explore" true
    (not (Analytical.stripped_forced prepared));
  check_bool "mrct not forced by default explore" true (not (Analytical.mrct_forced prepared));
  check_int "misses facade" 5 (Analytical.misses prepared ~depth:1 ~associativity:1);
  (* the boxed streaming method forces the strip view but not the MRCT *)
  ignore (Analytical.misses ~method_:Analytical.Streaming prepared ~depth:1 ~associativity:1);
  check_bool "streaming forces only the boxed strip" true
    (Analytical.stripped_forced prepared && not (Analytical.mrct_forced prepared));
  check_bool "mrct forced on demand" true
    (ignore (Analytical.mrct prepared);
     Analytical.mrct_forced prepared)

let prop_domains_facade_invariant =
  prop ~count:50 "explore_prepared invariant in domains" gen_addresses (fun addrs ->
      QCheck2.assume (Array.length addrs > 0);
      let prepared = Analytical.prepare (Trace.of_addresses addrs) in
      let pairs domains =
        Optimizer.optimal_pairs (Analytical.explore_prepared ~domains prepared ~k:3)
      in
      pairs 1 = pairs 4)

let suites =
  [
    ( "streaming:equivalence",
      [
        Alcotest.test_case "paper example" `Quick test_streaming_paper;
        prop_streaming_equals_bcat_walk;
        prop_streaming_exact_vs_simulator;
        prop_explore_methods_agree;
      ] );
    ( "streaming:edges",
      [
        Alcotest.test_case "empty trace" `Quick test_streaming_empty_trace;
        Alcotest.test_case "single reference" `Quick test_streaming_single_ref;
        Alcotest.test_case "repeated single address" `Quick test_streaming_repeated_single_address;
        Alcotest.test_case "negative level rejected" `Quick test_streaming_rejects_negative_level;
        Alcotest.test_case "facade defaults" `Quick test_facade_default_is_arena;
        prop_domains_facade_invariant;
      ] );
  ]
