open Omflp_prelude
open Omflp_metric
open Omflp_obs

(* Same work-counter substrate as the multi-commodity algorithms
   (lib/obs), so OFL baselines and PD/RAND comparisons read off one
   measurement surface. *)
let m_steps = Metrics.counter "ofl.meyerson.steps"

let m_coin_flips = Metrics.counter "ofl.meyerson.coin_flips"

let m_facilities_opened = Metrics.counter "ofl.meyerson.facilities_opened"

type cls = { cost : float; sites : int array }

type t = {
  metric : Finite_metric.t;
  rng : Splitmix.t;
  classes : cls array;  (** strictly increasing rounded cost *)
  dist_to_f : float array;  (** per site, distance to nearest open facility *)
  mutable facility_sites : int list;
  mutable construction : float;
  mutable assignment : float;
  opening_costs : float array;
}

let build_classes opening_costs =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun m c ->
      let rounded = if c = 0.0 then 0.0 else Numerics.floor_pow2 c in
      let prev = Option.value (Hashtbl.find_opt tbl rounded) ~default:[] in
      Hashtbl.replace tbl rounded (m :: prev))
    opening_costs;
  let classes =
    Hashtbl.fold
      (fun cost sites acc -> { cost; sites = Array.of_list (List.rev sites) } :: acc)
      tbl []
  in
  Array.of_list (List.sort (fun a b -> Float.compare a.cost b.cost) classes)

let create_seeded metric ~opening_costs ~rng =
  let n = Finite_metric.size metric in
  if Array.length opening_costs <> n then
    invalid_arg "Meyerson.create: opening_costs arity mismatch";
  Array.iter
    (fun c -> if c < 0.0 then invalid_arg "Meyerson.create: negative cost")
    opening_costs;
  {
    metric;
    rng;
    classes = build_classes opening_costs;
    dist_to_f = Array.make n infinity;
    facility_sites = [];
    construction = 0.0;
    assignment = 0.0;
    opening_costs;
  }

let create metric ~opening_costs =
  create_seeded metric ~opening_costs ~rng:(Splitmix.of_int 0x6d65)

let open_facility t m =
  Metrics.incr m_facilities_opened;
  t.facility_sites <- m :: t.facility_sites;
  t.construction <- t.construction +. t.opening_costs.(m);
  for p = 0 to Array.length t.dist_to_f - 1 do
    let d = Finite_metric.dist t.metric p m in
    if d < t.dist_to_f.(p) then t.dist_to_f.(p) <- d
  done

let nearest_in_class t site cls =
  let best_site = ref cls.sites.(0) in
  let best = ref (Finite_metric.dist t.metric site !best_site) in
  Array.iter
    (fun m ->
      let d = Finite_metric.dist t.metric site m in
      if d < !best then begin
        best := d;
        best_site := m
      end)
    cls.sites;
  (!best_site, !best)

let step t site =
  Metrics.incr m_steps;
  let k = Array.length t.classes in
  (* Cumulative-minimum distance to classes 0..i. *)
  let cum = Array.make k infinity in
  let acc = ref infinity in
  Array.iteri
    (fun i cls ->
      let _, d = nearest_in_class t site cls in
      acc := Float.min !acc d;
      cum.(i) <- !acc)
    t.classes;
  (* Connection estimate: nearest open facility, or cheapest
     build-and-connect. *)
  let open_estimate =
    let best = ref infinity in
    Array.iteri
      (fun i cls -> best := Float.min !best (cls.cost +. cum.(i)))
      t.classes;
    !best
  in
  let estimate = Float.min t.dist_to_f.(site) open_estimate in
  (* Per-class opening coin: probability (D_{i-1} - D_i) / C_i with
     D_0 = estimate. *)
  Array.iteri
    (fun i cls ->
      let d_prev = if i = 0 then estimate else cum.(i - 1) in
      let improvement = Float.max 0.0 (d_prev -. cum.(i)) in
      if cls.cost = 0.0 then begin
        (* Free classes: opening is always worthwhile when it beats every
           existing facility (the estimate already counts the free build,
           so compare against open facilities instead). *)
        if cum.(i) < t.dist_to_f.(site) then
          open_facility t (fst (nearest_in_class t site cls))
      end
      else begin
        let p = Float.min 1.0 (improvement /. cls.cost) in
        if p > 0.0 then begin
          Metrics.incr m_coin_flips;
          if Splitmix.bernoulli t.rng p then
            open_facility t (fst (nearest_in_class t site cls))
        end
      end)
    t.classes;
  (* Service guarantee: if nothing is open yet, deterministically realise
     the cheapest build-and-connect option. *)
  if t.dist_to_f.(site) = infinity then begin
    let best_i = ref 0 and best_v = ref infinity in
    Array.iteri
      (fun i cls ->
        let _, d = nearest_in_class t site cls in
        let v = cls.cost +. d in
        if v < !best_v then begin
          best_v := v;
          best_i := i
        end)
      t.classes;
    open_facility t (fst (nearest_in_class t site t.classes.(!best_i)))
  end;
  let dist = t.dist_to_f.(site) in
  t.assignment <- t.assignment +. dist;
  dist

let snapshot t =
  {
    Ofl_types.facilities = List.rev t.facility_sites;
    construction_cost = t.construction;
    assignment_cost = t.assignment;
  }

(* Persisted state: everything [step] reads that is not a pure function
   of (metric, opening_costs) — the RNG position, the opening history,
   the incremental distance table, and the cost accumulators — written
   inside the enclosing algorithm's snapshot segment. [classes] is
   rebuilt deterministically from the opening costs. *)

let write_state b t =
  Snapshot_codec.w_i64 b (Splitmix.state t.rng);
  Snapshot_codec.w_list Snapshot_codec.w_int b t.facility_sites;
  Snapshot_codec.w_float_array b t.dist_to_f;
  Snapshot_codec.w_float b t.construction;
  Snapshot_codec.w_float b t.assignment

let read_state metric ~opening_costs r =
  let z_rng = Snapshot_codec.r_i64 r in
  let z_facility_sites = Snapshot_codec.r_list Snapshot_codec.r_int r in
  let z_dist_to_f = Snapshot_codec.r_float_array r in
  let z_construction = Snapshot_codec.r_float r in
  let z_assignment = Snapshot_codec.r_float r in
  if Array.length z_dist_to_f <> Finite_metric.size metric then
    failwith "Meyerson.read_state: state from a different metric";
  let t = create_seeded metric ~opening_costs ~rng:(Splitmix.create z_rng) in
  {
    t with
    dist_to_f = z_dist_to_f;
    facility_sites = z_facility_sites;
    construction = z_construction;
    assignment = z_assignment;
  }
