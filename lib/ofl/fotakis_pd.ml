open Omflp_metric
open Omflp_obs

(* Same work-counter substrate as the multi-commodity algorithms
   (lib/obs). [ofl.fotakis.bid_evals] counts past-request bid
   evaluations — the quadratic-in-history work PD-OMFLP's maintained bid
   caches avoid. *)
let m_steps = Metrics.counter "ofl.fotakis.steps"

let m_bid_evals = Metrics.counter "ofl.fotakis.bid_evals"

let m_facilities_opened = Metrics.counter "ofl.fotakis.facilities_opened"

type past = { site : int; dual : float }

type t = {
  metric : Finite_metric.t;
  opening_costs : float array;
  mutable past : past list;  (** newest first *)
  mutable facility_sites : int list;
  (* dist_to_f.(m): distance from site m to the nearest open facility. *)
  dist_to_f : float array;
  mutable construction : float;
  mutable assignment : float;
}

let create metric ~opening_costs =
  let n = Finite_metric.size metric in
  if Array.length opening_costs <> n then
    invalid_arg "Fotakis_pd.create: opening_costs arity mismatch";
  Array.iter
    (fun c -> if c < 0.0 then invalid_arg "Fotakis_pd.create: negative cost")
    opening_costs;
  {
    metric;
    opening_costs;
    past = [];
    facility_sites = [];
    dist_to_f = Array.make n infinity;
    construction = 0.0;
    assignment = 0.0;
  }

let open_facility t m =
  Metrics.incr m_facilities_opened;
  t.facility_sites <- m :: t.facility_sites;
  t.construction <- t.construction +. t.opening_costs.(m);
  for p = 0 to Array.length t.dist_to_f - 1 do
    let d = Finite_metric.dist t.metric p m in
    if d < t.dist_to_f.(p) then t.dist_to_f.(p) <- d
  done

(* Bid of a past request towards a facility at m: its dual is capped by
   its current distance to the open facility set (it never pays more than
   a reconnection would save). *)
let past_bid t m (p : past) =
  Float.max 0.0 (Float.min p.dual t.dist_to_f.(p.site) -. Finite_metric.dist t.metric p.site m)

let step t site =
  Metrics.incr m_steps;
  let n = Finite_metric.size t.metric in
  (* The dual a_r rises until connect (a_r = d(F, r)) or some site's
     facility is fully paid: (a_r - d(m,r))+ + Σ past bids = f_m, i.e.
     a_r = d(m,r) + f_m - B(m). Take the earliest event. *)
  let connect_at = t.dist_to_f.(site) in
  let best_site = ref (-1) in
  let best_open_at = ref infinity in
  for m = 0 to n - 1 do
    let b = ref 0.0 in
    List.iter
      (fun p ->
        Metrics.incr m_bid_evals;
        b := !b +. past_bid t m p)
      t.past;
    (* Tight when the request's own bid is active: a_r reaches
       d(m, r) + (f_m - B)+, keeping the assignment bounded by the dual. *)
    let open_at =
      Finite_metric.dist t.metric site m
      +. Float.max 0.0 (t.opening_costs.(m) -. !b)
    in
    if open_at < !best_open_at then begin
      best_open_at := open_at;
      best_site := m
    end
  done;
  let dual = Float.min connect_at !best_open_at in
  let dist =
    if !best_open_at < connect_at then begin
      open_facility t !best_site;
      Finite_metric.dist t.metric site !best_site
    end
    else connect_at
  in
  t.past <- { site; dual } :: t.past;
  t.assignment <- t.assignment +. dist;
  dist

let snapshot t =
  {
    Ofl_types.facilities = List.rev t.facility_sites;
    construction_cost = t.construction;
    assignment_cost = t.assignment;
  }

let duals t = List.rev_map (fun p -> p.dual) t.past

(* Persisted state: the frozen duals, the opening history, the distance
   table, and the cost accumulators — all pure data. *)

module Sc = Omflp_prelude.Snapshot_codec

let snapshot_tag = "omflp.snap.fotakis.v2"

let w_past b (p : past) =
  Sc.w_int b p.site;
  Sc.w_float b p.dual

let r_past r =
  let site = Sc.r_int r in
  let dual = Sc.r_float r in
  { site; dual }

let save_state t =
  Sc.encode ~tag:snapshot_tag (fun b ->
      Sc.w_list w_past b t.past;
      Sc.w_list Sc.w_int b t.facility_sites;
      Sc.w_float_array b t.dist_to_f;
      Sc.w_float b t.construction;
      Sc.w_float b t.assignment)

let restore_state metric ~opening_costs blob =
  Sc.decode ~tag:snapshot_tag
    (fun r ->
      let z_past = Sc.r_list r_past r in
      let z_facility_sites = Sc.r_list Sc.r_int r in
      let z_dist_to_f = Sc.r_float_array r in
      let z_construction = Sc.r_float r in
      let z_assignment = Sc.r_float r in
      if Array.length z_dist_to_f <> Finite_metric.size metric then
        failwith "Fotakis_pd.restore_state: snapshot from a different metric";
      let t = create metric ~opening_costs in
      {
        t with
        past = z_past;
        facility_sites = z_facility_sites;
        dist_to_f = z_dist_to_f;
        construction = z_construction;
        assignment = z_assignment;
      })
    blob
