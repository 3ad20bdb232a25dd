(** Postlude phase (paper Algorithm 3).

    For every cache depth [2^l] the optimizer computes, from the BCAT and
    the MRCT, the exact number of non-cold LRU misses at every
    associativity, and hence the minimum associativity meeting the
    designer's miss budget K.

    The miss counts are derived from per-level histograms: for each warm
    occurrence of a reference [e] with conflict set [C], mapping to a
    level-[l] row holding the reference set [S], the occurrence misses at
    associativity [A] iff [|C ∩ S| >= A]. Recording [c = |C ∩ S|] once in
    a histogram therefore yields the miss count of *every* associativity
    as a suffix sum. *)

type level_result = {
  level : int;  (** log2 of the cache depth *)
  depth : int;  (** number of cache rows, [2 ^ level] *)
  min_associativity : int;  (** smallest A with at most K non-cold misses *)
  misses : int;  (** non-cold misses at [min_associativity] *)
  zero_miss_associativity : int;
      (** smallest A with exactly zero non-cold misses at this depth *)
}

type t = {
  k : int;  (** the miss budget the exploration was run with *)
  levels : level_result array;  (** indexed by level, 0 .. max_level *)
}

(** [explore bcat mrct ~k] runs Algorithm 3 over every level of the tree.
    Raises [Invalid_argument] on a negative [k]. *)
val explore : Bcat.t -> Mrct.t -> k:int -> t

(** [histogram_at bcat mrct ~level] is the level histogram: index [c]
    counts the warm occurrences whose conflict set meets their row set in
    exactly [c] references (index 0 is unused and zero). *)
val histogram_at : Bcat.t -> Mrct.t -> level:int -> int array

(** [misses_at bcat mrct ~level ~associativity] is the exact number of
    non-cold misses of the [2^level] x [associativity] LRU cache. *)
val misses_at : Bcat.t -> Mrct.t -> level:int -> associativity:int -> int

(** [of_histograms ~k histograms] assembles a result from per-level
    histograms (shared with the fused kernels; [histograms.(l)] is the
    level-[l] histogram). *)
val of_histograms : k:int -> int array array -> t

(** [misses_of_histogram histogram ~associativity] is the suffix sum
    giving the miss count at one associativity. *)
val misses_of_histogram : int array -> associativity:int -> int

(** [suffix_sums h] is [s] of length [Array.length h + 1] with
    [s.(a) = misses_of_histogram h ~associativity:a] for every
    [a >= 1] up to the width, and [s.(width) = 0]. *)
val suffix_sums : int array -> int array

(** Every level's {!suffix_sums}, computed once so any number of
    budgets can be answered from them ({!of_tails}). *)
type tails

val tails : int array array -> tails

(** [of_tails ~k tails] is [of_histograms ~k histograms] for the
    histograms [tails] was built from, in O(width) per level.
    [zero_miss_associativity] is the smallest A whose tail sum is 0, so
    a histogram with trailing zero counts gets the A its last non-zero
    count implies, not its width. *)
val of_tails : k:int -> tails -> t

(** [optimal_pairs t] lists the (depth, associativity) design instances,
    one per level — the paper's output set. *)
val optimal_pairs : t -> (int * int) list

val pp : Format.formatter -> t -> unit
