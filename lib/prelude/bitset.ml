type t = { universe : int; words : int array }

let bits_per_word = 62

let word_count universe = (universe + bits_per_word - 1) / bits_per_word

let create universe =
  if universe < 0 then invalid_arg "Bitset.create: negative universe";
  { universe; words = Array.make (max 1 (word_count universe)) 0 }

let universe t = t.universe

let check_index t i =
  if i < 0 || i >= t.universe then
    invalid_arg
      (Printf.sprintf "Bitset: index %d outside universe %d" i t.universe)

let check_same a b =
  if a.universe <> b.universe then
    invalid_arg
      (Printf.sprintf "Bitset: universes differ (%d vs %d)" a.universe
         b.universe)

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let mem t i =
  check_index t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let copy t = { t with words = Array.copy t.words }

(* In place: only for sets under construction, before anyone sees them. *)
let set_bit t i =
  check_index t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let add t i =
  let t' = copy t in
  set_bit t' i;
  t'

let remove t i =
  check_index t i;
  let t' = copy t in
  t'.words.(i / bits_per_word) <-
    t'.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word));
  t'

let singleton universe i =
  let t = create universe in
  set_bit t i;
  t

(* Mask of valid bits in the last word, so [complement] and [full] never set
   phantom bits beyond the universe. *)
let last_word_mask universe =
  let rem = universe mod bits_per_word in
  if universe = 0 then 0
  else if rem = 0 then (1 lsl bits_per_word) - 1
  else (1 lsl rem) - 1

let full universe =
  let t = create universe in
  let n = Array.length t.words in
  if universe > 0 then begin
    for k = 0 to n - 2 do
      t.words.(k) <- (1 lsl bits_per_word) - 1
    done;
    t.words.(n - 1) <- last_word_mask universe
  end;
  t

let map2 op a b =
  check_same a b;
  let words = Array.mapi (fun k w -> op w b.words.(k)) a.words in
  { universe = a.universe; words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement t =
  let f = full t.universe in
  diff f t

let subset a b =
  check_same a b;
  let ok = ref true in
  Array.iteri (fun k w -> if w land lnot b.words.(k) <> 0 then ok := false) a.words;
  !ok

let equal a b =
  check_same a b;
  Array.for_all2 ( = ) a.words b.words

let compare a b =
  check_same a b;
  Stdlib.compare a.words b.words

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let iter f t =
  (* Word-skipping scan: empty words cost one compare, and each word's
     loop ends at its highest set bit. Phantom bits are never set, so the
     universe bound needs no separate check. *)
  let nw = Array.length t.words in
  for k = 0 to nw - 1 do
    let w = ref t.words.(k) in
    let i = ref (k * bits_per_word) in
    while !w <> 0 do
      if !w land 1 <> 0 then f !i;
      w := !w lsr 1;
      incr i
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let rec set_bits t = function
  | [] -> ()
  | i :: is ->
      set_bit t i;
      set_bits t is

let of_list universe is =
  let t = create universe in
  set_bits t is;
  t

let choose t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    raise Not_found
  with Found i -> i

let for_all p t = fold (fun i acc -> acc && p i) t true

let hash t = Hashtbl.hash (t.universe, t.words)

let to_int t =
  if t.universe > bits_per_word then
    invalid_arg "Bitset.to_int: universe exceeds 62";
  t.words.(0)

let of_int universe bits =
  if universe > bits_per_word then
    invalid_arg "Bitset.of_int: universe exceeds 62";
  if bits land lnot (last_word_mask universe) <> 0 && universe > 0 then
    invalid_arg "Bitset.of_int: bits outside universe";
  if universe = 0 && bits <> 0 then invalid_arg "Bitset.of_int: bits outside universe";
  let t = create universe in
  t.words.(0) <- bits;
  t

let to_words t = Array.copy t.words

let of_words universe words =
  if universe < 0 then invalid_arg "Bitset.of_words: negative universe";
  let n = max 1 (word_count universe) in
  if Array.length words <> n then
    invalid_arg "Bitset.of_words: wrong word count";
  let ok = ref true in
  if universe = 0 then (if words.(0) <> 0 then ok := false)
  else begin
    for k = 0 to n - 2 do
      if words.(k) land lnot ((1 lsl bits_per_word) - 1) <> 0 then ok := false
    done;
    if words.(n - 1) land lnot (last_word_mask universe) <> 0 then ok := false
  end;
  if not !ok then invalid_arg "Bitset.of_words: bits outside universe";
  { universe; words = Array.copy words }

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements t)
