(* Order statistics over timing samples. *)

(* [percentile xs p], p in [0, 100]: linear interpolation between closest
   ranks on the sorted sample (the "type 7" definition), so the median of
   an even-sized sample is the mean of its two middle values. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let h = float_of_int (n - 1) *. p /. 100. in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* The highest of [candidates] (descending) with at least ten samples
   beyond it in a sample of [n]; [None] when even the lowest has fewer. *)
let supported_percentile ~n candidates =
  List.find_opt (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10.) candidates
