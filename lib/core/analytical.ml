type method_ = Bcat_walk | Streaming | Arena

(* The arena strip is the strict, primary representation: prepare builds
   it directly from the trace with no boxed intermediates. The boxed
   Strip.t is a lazy view forced only by the BCAT walk, by the boxed
   Streaming kernel, or by callers that
   need explicit arrays; the MRCT forces the boxed view in turn. The
   default Arena path touches neither. *)
type prepared = {
  arena : Arena_kernel.strip;
  stripped_lazy : Strip.t Lazy.t;
  mrct_lazy : Mrct.t Lazy.t;
  max_level : int;
  line_words : int;
}

let arena_strip prepared = prepared.arena

let stripped prepared = Lazy.force prepared.stripped_lazy

let stripped_forced prepared = Lazy.is_val prepared.stripped_lazy

let mrct prepared = Lazy.force prepared.mrct_lazy

let mrct_forced prepared = Lazy.is_val prepared.mrct_lazy

let max_level prepared = prepared.max_level

let line_words prepared = prepared.line_words

let stats prepared = Arena_kernel.stats prepared.arena

let prepare ?max_level ?(line_words = 1) trace =
  if line_words < 1 || line_words land (line_words - 1) <> 0 then
    invalid_arg "Analytical.prepare: line_words must be a positive power of two";
  let arena = Arena_kernel.of_trace ~line_words trace in
  let stripped_lazy = lazy (Arena_kernel.to_strip arena) in
  let bits = Arena_kernel.address_bits arena in
  let max_level =
    match max_level with None -> bits | Some m -> max 0 (min m bits)
  in
  {
    arena;
    stripped_lazy;
    mrct_lazy = lazy (Mrct.build (Lazy.force stripped_lazy));
    max_level;
    line_words;
  }

let histograms ?(cancel = Cancel.none) ?(method_ = Arena) ?(domains = 1) prepared =
  match method_ with
  | Arena ->
    Arena_kernel.histograms ~cancel ~domains prepared.arena ~max_level:prepared.max_level
  | Streaming -> Streaming.histograms ~cancel (stripped prepared) ~max_level:prepared.max_level
  | Bcat_walk ->
    let zero_one = Zero_one.build (stripped prepared) in
    let bcat = Bcat.build ~max_level:prepared.max_level zero_one in
    Array.init (Bcat.max_level bcat + 1) (fun level ->
        (* level boundary: one poll per histogram of the walk *)
        Cancel.check cancel;
        Optimizer.histogram_at bcat (mrct prepared) ~level)

let explore_prepared ?cancel ?(method_ = Arena) ?domains prepared ~k =
  match method_ with
  | Bcat_walk ->
    let zero_one = Zero_one.build (stripped prepared) in
    let bcat = Bcat.build ~max_level:prepared.max_level zero_one in
    Optimizer.explore bcat (mrct prepared) ~k
  | Streaming | Arena ->
    Optimizer.of_histograms ~k (histograms ?cancel ~method_ ?domains prepared)

let explore_many ?(method_ = Arena) ?domains prepared ~ks =
  let histograms = histograms ~method_ ?domains prepared in
  List.map (fun k -> Optimizer.of_histograms ~k histograms) ks

let explore ?max_level ?line_words ?method_ ?domains trace ~k =
  explore_prepared ?method_ ?domains (prepare ?max_level ?line_words trace) ~k

let level_of_depth depth max_level =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  if depth < 1 || depth land (depth - 1) <> 0 then
    invalid_arg "Analytical.misses: depth must be a positive power of two";
  let level = log2 depth 0 in
  if level > max_level then
    invalid_arg
      (Printf.sprintf "Analytical.misses: depth %d exceeds max level %d" depth max_level);
  level

let misses ?(method_ = Arena) ?domains prepared ~depth ~associativity =
  let level = level_of_depth depth prepared.max_level in
  match method_ with
  | Arena -> Arena_kernel.misses ?domains prepared.arena ~level ~associativity
  | Streaming -> Streaming.misses (stripped prepared) ~level ~associativity
  | Bcat_walk ->
    let zero_one = Zero_one.build (stripped prepared) in
    let bcat = Bcat.build ~max_level:level zero_one in
    Optimizer.misses_at bcat (mrct prepared) ~level ~associativity
