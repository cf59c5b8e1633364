type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Numerics.kahan_sum xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let sq = Array.map (fun x -> (x -. m) ** 2.0) xs in
    sqrt (Numerics.kahan_sum sq /. float_of_int (n - 1))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    median = percentile xs 50.0;
    p90 = percentile xs 90.0;
  }

let ci95 xs =
  let n = Array.length xs in
  if n < 2 then 0.0 else 1.96 *. stddev xs /. sqrt (float_of_int n)

let geometric_mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.geometric_mean: empty";
  Array.iter
    (fun x ->
      if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive entry")
    xs;
  exp (mean (Array.map log xs))
