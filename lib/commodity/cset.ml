open Omflp_prelude

type t = Bitset.t

let empty ~n_commodities = Bitset.create n_commodities
let full ~n_commodities = Bitset.full n_commodities
let singleton ~n_commodities e = Bitset.singleton n_commodities e
let of_list ~n_commodities es = Bitset.of_list n_commodities es

let n_commodities = Bitset.universe
let mem = Bitset.mem
let cardinal = Bitset.cardinal
let is_empty = Bitset.is_empty
let is_full t = Bitset.cardinal t = Bitset.universe t
let union = Bitset.union
let inter = Bitset.inter
let diff = Bitset.diff
let subset = Bitset.subset
let equal = Bitset.equal
let compare = Bitset.compare
let iter = Bitset.iter
let for_all = Bitset.for_all
let fold = Bitset.fold
let elements = Bitset.elements
let add = Bitset.add
let remove = Bitset.remove

let all_subsets ~n_commodities =
  if n_commodities > 20 then
    invalid_arg "Cset.all_subsets: universe too large to enumerate";
  List.init (1 lsl n_commodities) (fun bits -> Bitset.of_int n_commodities bits)

let all_nonempty_subsets ~n_commodities =
  List.filter (fun s -> not (is_empty s)) (all_subsets ~n_commodities)

let subsets_of t =
  let els = Array.of_list (elements t) in
  let k = Array.length els in
  if k > 20 then invalid_arg "Cset.subsets_of: set too large to enumerate";
  List.init (1 lsl k) (fun bits ->
      let s = ref (empty ~n_commodities:(n_commodities t)) in
      for i = 0 to k - 1 do
        if bits land (1 lsl i) <> 0 then s := add !s els.(i)
      done;
      !s)

let write b t =
  Snapshot_codec.w_int b (Bitset.universe t);
  Snapshot_codec.w_int_array b (Bitset.to_words t)

let read r =
  let u = Snapshot_codec.r_int r in
  let words = Snapshot_codec.r_int_array r in
  try Bitset.of_words u words
  with Invalid_argument m -> failwith ("Snapshot_codec: " ^ m)

let pp = Bitset.pp
