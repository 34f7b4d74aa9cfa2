(* Sample statistics for the closed-loop benchmark.

   Timings are kept as integer nanoseconds so that every percentile is
   Profile.Stats' nearest-rank one, the same math the profiler uses for
   pause percentiles. *)

let ns_of_s (s : float) : int = int_of_float (Float.round (s *. 1e9))

let median (xs : int list) : int = Profile.Stats.percentile xs 50.0

let mean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* At 1,000 samples the nearest-rank p99 is the 990th value, so ten
   samples lie beyond it: the fewest a tail percentile may rest on. *)
let p99_min_samples = 1000

let p99 (xs : int list) : int option =
  if List.length xs < p99_min_samples then None
  else Some (Profile.Stats.percentile xs 99.0)

(* samples strictly above the nearest-rank [p]-th percentile of [n] *)
let beyond ~n (p : float) : int =
  n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let tail_ladder = [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

let tail_percentile (n : int) : float option =
  List.find_opt (fun p -> beyond ~n p >= 10) tail_ladder

(* nearest-rank percentile of floats, through Profile.Stats at a
   resolution of 1e-3 of the unit *)
let percentile_f (xs : float list) (p : float) : float =
  let milli x = int_of_float (Float.round (x *. 1e3)) in
  float_of_int (Profile.Stats.percentile (List.map milli xs) p) /. 1e3

let geomean (xs : float list) : float =
  exp (mean (List.map log xs))

let geomean_of_medians (groups : int list list) : float =
  geomean (List.map (fun g -> float_of_int (median g)) groups)

let paired_delta_median (pairs : (int * int) list) : int =
  median (List.map (fun (a, b) -> a - b) pairs)

let iqr (xs : int list) : int =
  Profile.Stats.percentile xs 75.0 - Profile.Stats.percentile xs 25.0

(* Across runs the benchmark's acceptance check uses Python's
   statistics.median and statistics.quantiles(xs, n=4) (its default
   'exclusive' method); these reproduce them so that `perf.exe compare`
   and that check agree on every spread. *)

let median_f (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles (xs : float list) : float * float * float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* (q3 - q1) / median; 0 for a constant sample, infinite when the median
   is 0 but the values are not *)
let spread (xs : float list) : float =
  let q1, _, q3 = quartiles xs in
  let med = median_f xs in
  if q3 = q1 then 0.0 else Float.abs ((q3 -. q1) /. med)
