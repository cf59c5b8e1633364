open Omflp_prelude

type key = Single of int | All

type cls = { cost : float; sites : int array }

type t = { singles : cls array array; all : cls array }

let round_down_pow2 v =
  if v < 0.0 then invalid_arg "Cost_classes.round_down_pow2: negative cost";
  if v = 0.0 then 0.0 else Numerics.floor_pow2 v

(* Rounding happens inside the grouping, so building the classes
   allocates no rounded copy of [costs]. *)
let of_costs costs =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun m c ->
      let c = round_down_pow2 c in
      let prev = Option.value (Hashtbl.find_opt tbl c) ~default:[] in
      Hashtbl.replace tbl c (m :: prev))
    costs;
  let classes =
    Hashtbl.fold
      (fun cost sites acc ->
        { cost; sites = Array.of_list (List.rev sites) } :: acc)
      tbl []
  in
  Array.of_list
    (List.sort (fun a b -> Float.compare a.cost b.cost) classes)

let build cost =
  let n_sites = Cost_function.n_sites cost in
  let n_commodities = Cost_function.n_commodities cost in
  let singles =
    Array.init n_commodities (fun e ->
        of_costs
          (Array.init n_sites (fun m -> Cost_function.singleton_cost cost m e)))
  in
  let all =
    of_costs (Array.init n_sites (fun m -> Cost_function.full_cost cost m))
  in
  { singles; all }

let classes t = function Single e -> t.singles.(e) | All -> t.all

let n_classes t key = Array.length (classes t key)

let nearest cls ~dist_to =
  let best_site = ref cls.sites.(0) in
  let best_dist = ref (dist_to !best_site) in
  Array.iter
    (fun m ->
      let d = dist_to m in
      if d < !best_dist then begin
        best_dist := d;
        best_site := m
      end)
    cls.sites;
  (!best_site, !best_dist)

let cumulative_min_dist t key ~dist_to ~upto =
  let cs = classes t key in
  if upto < 0 || upto >= Array.length cs then
    invalid_arg "Cost_classes.cumulative_min_dist: class index out of range";
  let best = ref infinity in
  for j = 0 to upto do
    best := Float.min !best (snd (nearest cs.(j) ~dist_to))
  done;
  !best

let build_estimate cs cum =
  let best = ref infinity in
  Array.iteri (fun i c -> best := Float.min !best (c.cost +. cum.(i))) cs;
  !best

let nearest_site_in_class t key ~dist_to ~cls_idx =
  let cs = classes t key in
  if cls_idx < 0 || cls_idx >= Array.length cs then
    invalid_arg "Cost_classes.nearest_site_in_class: class index out of range";
  nearest cs.(cls_idx) ~dist_to
