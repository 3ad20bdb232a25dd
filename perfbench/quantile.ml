(* Order statistics over samples: linear interpolation between the
   closest ranks. An empty sample reads 0. *)

let percentile values p =
  let n = Array.length values in
  if n = 0 then 0.
  else begin
    let a = Array.copy values in
    Array.sort Float.compare a;
    let h = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median values = percentile values 50.

let mean values =
  let n = Array.length values in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. values /. float_of_int n
