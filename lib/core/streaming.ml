(* Count trailing zeros of a positive int, clamped to [limit]; two
   references share a depth-2^l row iff their addresses agree on the low
   l bits, i.e. ctz (a lxor b) >= l. [limit] is threaded as an argument —
   a nested closure capturing it would allocate on every call, and this
   runs once per conflicting reference. *)
let rec ctz_clamped x acc limit =
  if acc >= limit then limit
  else if x land 1 = 1 then acc
  else ctz_clamped (x lsr 1) (acc + 1) limit

(* Growable per-level histograms, identical in growth and trimming to
   Arena_kernel so the two kernels produce bit-identical arrays. *)
type tally = {
  hists : int array array;
  max_c : int array;
  depth_count : int array;
}

let tally_create max_level =
  if max_level < 0 then invalid_arg "Streaming: negative max_level";
  {
    hists = Array.init (max_level + 1) (fun _ -> Array.make 1 0);
    max_c = Array.make (max_level + 1) 0;
    depth_count = Array.make (max_level + 1) 0;
  }

let record t level c =
  let h = t.hists.(level) in
  let h =
    if c >= Array.length h then begin
      let bigger = Array.make (max (c + 1) (2 * Array.length h)) 0 in
      Array.blit h 0 bigger 0 (Array.length h);
      t.hists.(level) <- bigger;
      bigger
    end
    else h
  in
  h.(c) <- h.(c) + 1;
  if c > t.max_c.(level) then t.max_c.(level) <- c

let tally_finish t = Array.mapi (fun l h -> Array.sub h 0 (t.max_c.(l) + 1)) t.hists

(* The fused kernel. The recency list is the same intrusive prev/next
   structure as Mrct.build (index n' is the sentinel). A warm occurrence
   of [u] walks the list prefix above [u] exactly as Mrct.build would to
   emit the conflict set, but each member is folded into depth_count
   immediately; the suffix sums then land in the histograms. No conflict
   set is ever stored. *)
let histograms ?(cancel = Cancel.none) (s : Strip.t) ~max_level =
  let t = tally_create max_level in
  let n' = Strip.num_unique s in
  let next = Array.make (n' + 1) n' in
  let prev = Array.make (n' + 1) n' in
  let in_list = Array.make (max n' 1) false in
  let unlink u =
    next.(prev.(u)) <- next.(u);
    prev.(next.(u)) <- prev.(u)
  in
  let push_front u =
    let first = next.(n') in
    next.(n') <- u;
    prev.(u) <- n';
    next.(u) <- first;
    prev.(first) <- u
  in
  let addresses = s.Strip.uniques in
  let depth_count = t.depth_count in
  for j = 0 to Strip.num_refs s - 1 do
    if j land Cancel.poll_mask = 0 then Cancel.check cancel;
    let u = s.Strip.ids.(j) in
    if in_list.(u) then begin
      let au = addresses.(u) in
      let v = ref next.(n') in
      let max_touched = ref (-1) in
      while !v <> u do
        let shared = ctz_clamped (au lxor addresses.(!v)) 0 max_level in
        depth_count.(shared) <- depth_count.(shared) + 1;
        if shared > !max_touched then max_touched := shared;
        v := next.(!v)
      done;
      (* suffix-sum over the levels the walk actually touched, clearing
         each slot as it is read: [running >= 1] for every
         [l <= max_touched], so the recorded (level, count) pairs are
         those of a full 0..max_level sweep without the per-occurrence
         [Array.fill] over all levels. [depth_count] stays all-zero
         between occurrences. *)
      let running = ref 0 in
      for l = !max_touched downto 0 do
        running := !running + depth_count.(l);
        depth_count.(l) <- 0;
        record t l !running
      done;
      unlink u
    end
    else in_list.(u) <- true;
    push_front u
  done;
  tally_finish t

let misses ?cancel s ~level ~associativity =
  if level < 0 then invalid_arg "Streaming.misses: negative level";
  let hists = histograms ?cancel s ~max_level:level in
  Optimizer.misses_of_histogram hists.(level) ~associativity
