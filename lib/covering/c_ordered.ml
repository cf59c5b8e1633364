open Omflp_prelude

type t = { c : float; bs : Bitset.t array }

let make ~c bs =
  if c <= 0.0 then invalid_arg "C_ordered.make: c must be positive";
  let n = Array.length bs in
  Array.iteri
    (fun i b ->
      if Bitset.universe b <> n then
        invalid_arg "C_ordered.make: B set over wrong universe";
      Bitset.iter
        (fun e ->
          if e >= i then
            invalid_arg
              (Printf.sprintf "C_ordered.make: B_%d contains %d >= %d" i e i))
        b;
      if i > 0 && not (Bitset.subset bs.(i - 1) b) then
        invalid_arg
          (Printf.sprintf "C_ordered.make: monotonicity fails at %d" i))
    bs;
  { c; bs }

let n t = Array.length t.bs
let c t = t.c

let prefix_set ~n i =
  (* {0, ..., i-1} as a bitset over universe n. *)
  let s = ref (Bitset.create n) in
  for e = 0 to i - 1 do
    s := Bitset.add !s e
  done;
  !s

let a_set t i = Bitset.diff (prefix_set ~n:(n t) i) t.bs.(i)

type choice = Take_singletons of int list | Take_coping of int

type cover = { total_weight : float; rounds : choice list }

let weight_of_choice t = function
  | Take_singletons is ->
      List.fold_left
        (fun acc i ->
          acc +. (t.c /. float_of_int (Bitset.cardinal t.bs.(i) + 1)))
        0.0 is
  | Take_coping _ -> t.c

(* Lemma 10/11/12: elements of A_last never appear in any B_j, so removing
   the last element together with covered elements of A_last leaves every
   remaining B set untouched; we simply iterate on the shrinking set of
   remaining original indices. *)
let solve t =
  let size = n t in
  let remaining = ref (Bitset.full size) in
  let rounds = ref [] in
  let total = ref 0.0 in
  while not (Bitset.is_empty !remaining) do
    let last =
      Bitset.fold (fun i _ -> i) !remaining (-1) (* max element *)
    in
    let b_last = t.bs.(last) in
    let m = Bitset.cardinal !remaining in
    let bsize = Bitset.cardinal b_last in
    (* The trailing block: remaining elements whose B set equals B_last.
       Monotonicity makes this a suffix of the remaining sequence. *)
    let block =
      Bitset.fold
        (fun i acc -> if Bitset.equal t.bs.(i) b_last then i :: acc else acc)
        !remaining []
    in
    let coping_per_element = t.c /. float_of_int (m - bsize) in
    let singleton_per_element = t.c /. float_of_int (bsize + 1) in
    let choice, covered =
      if coping_per_element <= singleton_per_element then
        (* {last} ∪ A_last restricted to remaining elements. *)
        let a = a_set t last in
        let covered =
          Bitset.add (Bitset.inter a !remaining) last
        in
        (Take_coping last, covered)
      else
        ( Take_singletons block,
          List.fold_left Bitset.add (Bitset.create size) block )
    in
    total := !total +. weight_of_choice t choice;
    rounds := choice :: !rounds;
    remaining := Bitset.diff !remaining covered
  done;
  { total_weight = !total; rounds = List.rev !rounds }

let covered_elements t cover =
  let size = n t in
  List.fold_left
    (fun acc choice ->
      match choice with
      | Take_singletons is -> List.fold_left Bitset.add acc is
      | Take_coping i -> Bitset.add (Bitset.union acc (a_set t i)) i)
    (Bitset.create size) cover.rounds

let bound t = 2.0 *. t.c *. Numerics.harmonic (n t)

let random rng ~n ~c ~growth_p =
  let bs = Array.make n (Bitset.create n) in
  for i = 1 to n - 1 do
    let b = ref bs.(i - 1) in
    (* Extend with fresh eligible elements (< i) at random; monotone by
       construction. *)
    for e = 0 to i - 1 do
      if (not (Bitset.mem !b e)) && Splitmix.bernoulli rng growth_p then
        b := Bitset.add !b e
    done;
    bs.(i) <- !b
  done;
  make ~c bs
