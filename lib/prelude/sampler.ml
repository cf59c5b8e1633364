let uniform_float rng ~lo ~hi = lo +. ((hi -. lo) *. Splitmix.float rng)

let gaussian rng ~mean ~stddev =
  let u1 = 1.0 -. Splitmix.float rng in
  let u2 = Splitmix.float rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let zipf_table ~n ~s =
  if n <= 0 then invalid_arg "Sampler.zipf_table: n must be positive";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !total
  done;
  Array.map (fun v -> v /. !total) cdf

let zipf_draw rng cdf =
  let u = Splitmix.float rng in
  (* Binary search for the first index with cdf.(i) > u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let zipf rng ~n ~s = zipf_draw rng (zipf_table ~n ~s)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement rng ~n ~k =
  if k < 0 || k > n then
    invalid_arg "Sampler.sample_without_replacement: need 0 <= k <= n";
  (* Partial Fisher–Yates: only the first k slots are materialised. *)
  let tbl = Hashtbl.create (2 * k) in
  let lookup i = match Hashtbl.find_opt tbl i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = i + Splitmix.int rng (n - i) in
      let vi = lookup i and vj = lookup j in
      Hashtbl.replace tbl j vi;
      Hashtbl.replace tbl i vj;
      vj)

let hypergeometric rng ~population ~successes ~draws =
  if successes < 0 || successes > population then
    invalid_arg "Sampler.hypergeometric: bad successes";
  if draws < 0 || draws > population then
    invalid_arg "Sampler.hypergeometric: bad draws";
  let remaining_pop = ref population in
  let remaining_succ = ref successes in
  let hits = ref 0 in
  for _ = 1 to draws do
    let p = float_of_int !remaining_succ /. float_of_int !remaining_pop in
    if Splitmix.float rng < p then begin
      incr hits;
      decr remaining_succ
    end;
    decr remaining_pop
  done;
  !hits

let categorical rng weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sampler.categorical: empty weights";
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Sampler.categorical: non-positive total";
  let u = Splitmix.float rng *. total in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.0

let random_subset rng ~universe ~p =
  let s = ref (Bitset.create universe) in
  for i = 0 to universe - 1 do
    if Splitmix.bernoulli rng p then s := Bitset.add !s i
  done;
  !s

let random_subset_of_size rng ~universe ~k =
  let picks = sample_without_replacement rng ~n:universe ~k in
  Array.fold_left Bitset.add (Bitset.create universe) picks
