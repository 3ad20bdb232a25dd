(** Streaming fused MRCT->histogram kernel on boxed arrays.

    {!Mrct.build} followed by a per-level fold of every conflict set
    materializes one conflict-set array per warm occurrence — O(N * N')
    words in the worst case — only to fold each set into per-level
    histograms and throw it away. This module fuses the two passes: it
    walks the same recency list as {!Mrct.build}, but tallies every
    conflicting reference directly into per-level depth counts and folds
    the suffix sums into the histograms on the spot. The conflict table
    never exists; peak memory is O(N' + levels * max_conflict) and the
    per-occurrence loop is allocation-free (histogram growth is
    geometric and amortized).

    This is the sequential boxed twin of {!Arena_kernel} and serves as
    its independent reference. Results are bit-identical to the BCAT
    walk over the materialized MRCT (property tested).

    [cancel] (default {!Cancel.none}) is polled every
    {!Cancel.poll_mask}+1 references; an expired token raises a typed
    {!Dse_error.Deadline_exceeded}. *)

(** [histograms ?cancel stripped ~max_level] computes the per-level
    conflict-cardinality histograms ([result.(l).(c)] counts warm
    occurrences whose conflict set meets their depth-[2^l] row in
    exactly [c] references). Raises [Invalid_argument] on a negative
    [max_level]. *)
val histograms : ?cancel:Cancel.t -> Strip.t -> max_level:int -> int array array

(** [misses ?cancel stripped ~level ~associativity] is the exact
    non-cold miss count of the [2^level] x [associativity] LRU cache,
    computed without materializing the conflict table. *)
val misses : ?cancel:Cancel.t -> Strip.t -> level:int -> associativity:int -> int
