(** High-level entry points tying the prelude and postlude together
    (the paper's Figure 2 pipeline: strip -> MRCT/BCAT -> optimal set). *)

type method_ =
  | Bcat_walk
      (** Algorithms 1 + 3 as published, over the materialized MRCT —
          the paper reference *)
  | Streaming
      (** {!Streaming}'s sequential single-pass fused kernel on boxed
          arrays — no MRCT is ever materialized, peak heap O(N) boxed
          words; the arena's independent reference *)
  | Arena
      (** the default: the same fused kernel on off-heap
          {!Arena_kernel} bigarrays — the strip, recency list, and
          tallies are GC-invisible and shared by reference across shard
          domains, so peak {e heap} is O(1) in N. Bit-identical to every
          other method (property tested). *)

(** The prelude result, reusable across budgets K. The arena strip is
    the strict primary representation; the boxed {!Strip.t} and the
    MRCT are lazy views forced only by the methods that need them —
    the default [Arena] path forces neither. *)
type prepared

(** [prepare ?max_level ?line_words trace] runs the prelude phase once:
    one pass over the trace into the off-heap arena strip, with no
    boxed intermediates. [max_level] defaults to the number of address
    bits and is clamped to it.

    [line_words] (default 1, the paper's fixed choice) extends the model
    to larger lines: word addresses are folded to line addresses before
    stripping, which keeps the characterisation exact for LRU since
    conflicts happen between lines. Must be a power of two. *)
val prepare : ?max_level:int -> ?line_words:int -> Trace.t -> prepared

(** [arena_strip prepared] is the off-heap strip the [Arena] method
    runs on — read-only, shareable across domains by reference. *)
val arena_strip : prepared -> Arena_kernel.strip

(** [stripped prepared] forces and returns the boxed strip view (equal
    to [Strip.strip] of the folded trace). First call pays the O(N + N')
    boxed copy out of the arena. *)
val stripped : prepared -> Strip.t

(** [stripped_forced prepared] reports whether the boxed view has been
    materialized — the arena path's zero-boxing guarantee is testable. *)
val stripped_forced : prepared -> bool

(** [mrct prepared] forces and returns the materialized conflict table —
    for callers that need explicit conflict sets (e.g. the Table-4
    printer). The first call pays the O(N * N') build (and forces the
    boxed strip). *)
val mrct : prepared -> Mrct.t

val mrct_forced : prepared -> bool

(** [max_level prepared] is the number of address bits usable as index
    bits. *)
val max_level : prepared -> int

(** [line_words prepared] is the line size the trace was folded to. *)
val line_words : prepared -> int

(** [stats prepared] is the trace statistics (N, N', address bits,
    depth-1 miss ceiling), O(1): every field was recorded while the
    arena strip was built. Equal to [Stats.compute] of the folded
    trace. *)
val stats : prepared -> Stats.t

(** [histograms ?cancel ?method_ ?domains prepared] is the per-level
    conflict-cardinality histograms, the shared currency of every
    postlude. All methods produce bit-identical arrays (property
    tested). [domains] (default 1) shards the [Arena] method; it is
    ignored by [Streaming] and [Bcat_walk].
    [cancel] (default {!Cancel.none}) makes the run cooperatively
    cancellable: the fused kernels poll it every {!Cancel.poll_mask}+1
    references, sharded runs poll at shard boundaries, and the BCAT
    walk polls at each level; expiry raises a typed
    {!Dse_error.Deadline_exceeded}. *)
val histograms :
  ?cancel:Cancel.t -> ?method_:method_ -> ?domains:int -> prepared -> int array array

(** [explore_prepared ?cancel ?method_ ?domains prepared ~k] runs the
    postlude for one budget. Default method is [Arena]. *)
val explore_prepared :
  ?cancel:Cancel.t -> ?method_:method_ -> ?domains:int -> prepared -> k:int -> Optimizer.t

(** [explore_many ?method_ ?domains prepared ~ks] answers several budgets
    from a single histogram computation — the "prelude once, postlude per
    constraint" economy the paper's flow is built around. Results are in
    the order of [ks] and identical to per-budget {!explore_prepared}
    calls. *)
val explore_many :
  ?method_:method_ -> ?domains:int -> prepared -> ks:int list -> Optimizer.t list

(** [explore ?max_level ?line_words ?method_ ?domains trace ~k] is
    [explore_prepared (prepare trace) ~k]. *)
val explore :
  ?max_level:int ->
  ?line_words:int ->
  ?method_:method_ ->
  ?domains:int ->
  Trace.t ->
  k:int ->
  Optimizer.t

(** [misses ?method_ ?domains prepared ~depth ~associativity] is the
    model's exact non-cold miss count for one configuration. [depth] must
    be a power of two no greater than [2 ^ max_level]. *)
val misses :
  ?method_:method_ -> ?domains:int -> prepared -> depth:int -> associativity:int -> int
