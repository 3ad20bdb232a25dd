type level_result = {
  level : int;
  depth : int;
  min_associativity : int;
  misses : int;
  zero_miss_associativity : int;
}

type t = { k : int; levels : level_result array }

let misses_of_histogram histogram ~associativity =
  if associativity < 1 then invalid_arg "Optimizer: associativity must be >= 1";
  let n = ref 0 in
  for c = associativity to Array.length histogram - 1 do
    n := !n + histogram.(c)
  done;
  !n

(* Histogram of |C ∩ S| over all warm occurrences at one level. The row
   set S is loaded into a scratch bitset so each membership test is O(1);
   entries with an empty intersection cannot miss and are not recorded. *)
let histogram_at bcat mrct ~level =
  let n' = Bcat.num_unique bcat in
  let scratch = Bitset.create (max n' 1) in
  let hist = Array.make (n' + 1) 0 in
  let max_c = ref 0 in
  let visit_row ids =
    Array.iter (fun id -> Bitset.add scratch id) ids;
    Array.iter
      (fun e ->
        Array.iter
          (fun conflict ->
            let c = ref 0 in
            Array.iter (fun v -> if Bitset.mem scratch v then incr c) conflict;
            if !c > 0 then begin
              hist.(!c) <- hist.(!c) + 1;
              if !c > !max_c then max_c := !c
            end)
          (Mrct.conflict_sets mrct e))
      ids;
    Array.iter (fun id -> Bitset.remove scratch id) ids
  in
  List.iter visit_row (Bcat.conflict_sets_at_level bcat level);
  Array.sub hist 0 (!max_c + 1)

let misses_at bcat mrct ~level ~associativity =
  misses_of_histogram (histogram_at bcat mrct ~level) ~associativity

let suffix_sums histogram =
  let width = Array.length histogram in
  let sums = Array.make (width + 1) 0 in
  for c = width - 1 downto 0 do
    sums.(c) <- sums.(c + 1) + histogram.(c)
  done;
  sums

type tails = int array array

let tails histograms = Array.map suffix_sums histograms

(* One pass over a level's tail sums: they are non-increasing in A and
   reach 0 at the histogram width, so the first A meeting the budget and
   the first A with no miss at all are both found by a scan that stops
   there — O(width) per level, however many budgets share the tails. *)
let level_result_of_tail ~k ~level sums =
  let width = Array.length sums - 1 in
  let a = ref 1 in
  while !a < width && sums.(!a) > k do
    incr a
  done;
  let zero = ref width in
  while !zero > 1 && sums.(!zero - 1) = 0 do
    decr zero
  done;
  { level;
    depth = 1 lsl level;
    min_associativity = !a;
    misses = (if !a > width then 0 else sums.(!a));
    zero_miss_associativity = max 1 !zero;
  }

let of_tails ~k tails =
  if k < 0 then invalid_arg "Optimizer: negative miss budget";
  { k; levels = Array.mapi (fun level sums -> level_result_of_tail ~k ~level sums) tails }

let of_histograms ~k histograms = of_tails ~k (tails histograms)

let explore bcat mrct ~k =
  if k < 0 then invalid_arg "Optimizer.explore: negative miss budget";
  let histograms =
    Array.init (Bcat.max_level bcat + 1) (fun level -> histogram_at bcat mrct ~level)
  in
  of_histograms ~k histograms

let optimal_pairs t =
  Array.to_list (Array.map (fun r -> (r.depth, r.min_associativity)) t.levels)

let pp fmt t =
  Format.fprintf fmt "@[<v>K=%d@," t.k;
  Array.iter
    (fun r ->
      Format.fprintf fmt "depth=%-6d assoc=%-3d misses=%-8d zero-miss assoc=%d@,"
        r.depth r.min_associativity r.misses r.zero_miss_associativity)
    t.levels;
  Format.fprintf fmt "@]"
