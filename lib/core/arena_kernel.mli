(** The fused kernel on off-heap arenas — [--method arena], the
    production exact kernel and the only one that shards.

    Same algorithm and bit-identical output as the sequential boxed
    {!Streaming} kernel (property tested), with every hot table moved
    into {!Arena} bigarrays the GC neither scans, copies, nor counts in
    [top_heap_words]:

    - the strip (per-reference ids + unique line addresses) is built
      {e directly from the trace} — the boxed line-address array,
      [Hashtbl], and [Strip.t] of the classic prelude never exist — and
      is shared by reference across shard domains;
    - the recency list is two int32 arenas plus a packed 63-bit bitset;
    - per-level tallies and [depth_count] accumulate in per-shard word
      arenas merged straight into the final histograms, no intermediate
      per-shard arrays.

    Per-reference footprint drops from ~50 B (boxed trace + strip +
    recency, all GC-scanned) to 4 B of ids plus O(N') side state, which
    is what makes 10^9-reference traces representable and lets [dse
    serve] admit jobs the boxed cost model had to reject. *)

(** A read-only stripped trace in flat arenas. Safe to share across
    domains: after {!of_trace} returns it is never written again. *)
type strip

(** [of_trace ?line_words trace] strips in one pass: folds word
    addresses to line addresses ([line_words] default 1, must be a power
    of two), assigns ids in first-occurrence order (identical to
    {!Strip.strip}), and records the depth-1 direct-mapped miss count
    and address width as it goes. Raises a typed
    {!Dse_error.Constraint_violation} if the unique count overflows the
    int32 id arena. *)
val of_trace : ?line_words:int -> Trace.t -> strip

val num_refs : strip -> int

val num_unique : strip -> int

(** [address_bits s] is the bits needed for the widest line address; at
    least 1. Matches {!Strip.address_bits} of the boxed view. *)
val address_bits : strip -> int

(** [stats s] is O(1): every field was recorded during the build, so the
    arena path reports {!Stats.t} without re-scanning or boxing. Equal to
    [Stats.compute_stripped] of the boxed view. *)
val stats : strip -> Stats.t

(** [to_strip s] is the boxed {!Strip.t} view, equal to [Strip.strip] of
    the source trace — the bridge to the BCAT walk, the boxed
    {!Streaming} kernel and the conflict-table printers. Costs O(N + N') boxed
    words; the arena path never calls it. *)
val to_strip : strip -> Strip.t

(** [histograms ?cancel ?domains ?shard_threshold s ~max_level] is the
    per-level conflict-cardinality histograms, bit-identical to
    {!Streaming.histograms} on the boxed view. [domains] (default 1,
    clamped to at least 1) shards the trace into windows: each shard
    replays the prefix before its window to rebuild the recency list,
    then tallies its own window, and the per-level tallies are summed.
    Warm occurrences partition by position, so the merge is exact.
    Shards run under {!Shard_exec} fault isolation: a crashed shard is
    retried once in a fresh domain, then recomputed sequentially. Every
    shard reads the same strip arenas by reference. [shard_threshold]
    (default {!min_shard_refs}) is the smallest per-domain window for
    which sharding is attempted — tests lower it to exercise the sharded
    path on short traces. [cancel] (default {!Cancel.none}) is polled
    every {!Cancel.poll_mask}+1 references of both the replay prologue
    and the tally loop; an expired token raises a typed
    {!Dse_error.Deadline_exceeded} from whichever shard notices first,
    and is never retried. Raises [Invalid_argument] on a negative
    [max_level]. *)
val histograms :
  ?cancel:Cancel.t ->
  ?domains:int ->
  ?shard_threshold:int ->
  strip ->
  max_level:int ->
  int array array

(** [explore ?cancel ?domains ?shard_threshold s ~max_level ~k] runs the
    postlude on the arena histograms. *)
val explore :
  ?cancel:Cancel.t ->
  ?domains:int ->
  ?shard_threshold:int ->
  strip ->
  max_level:int ->
  k:int ->
  Optimizer.t

(** [misses ?cancel ?domains ?shard_threshold s ~level ~associativity]
    is the exact non-cold miss count of the [2^level] x [associativity]
    LRU cache. *)
val misses :
  ?cancel:Cancel.t ->
  ?domains:int ->
  ?shard_threshold:int ->
  strip ->
  level:int ->
  associativity:int ->
  int

(** [min_shard_refs] is the smallest per-domain window (in trace
    references) for which sharding is attempted; below it the sequential
    kernel runs regardless of [domains]. Exposed for the server's heavy
    job threshold, the tests and the benchmarks. *)
val min_shard_refs : int
