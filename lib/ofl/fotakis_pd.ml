open Omflp_prelude
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

(* The dual a_r rises until connect (a_r = d(F, r)) or some site's
   facility is fully paid: a_r = d(r,m) + (f_m - B(m))+, where a past
   request bids its dual capped by its own d(F, ·) (it never pays more
   than a reconnection would save). Each B(m) adds its terms newest
   first. *)
let event metric ~bids ~opening ~dist_to_served past r =
  let n = Finite_metric.size metric in
  Array.fill bids 0 n 0.0;
  List.iter
    (fun p ->
      let cap = Float.min p.dual (dist_to_served p.site) in
      let row_p = Finite_metric.row metric p.site in
      for m = 0 to n - 1 do
        bids.(m) <- bids.(m) +. Numerics.pos (cap -. row_p.(m))
      done)
    past;
  let row_r = Finite_metric.row metric r in
  let best_site = ref (-1) in
  let best_open = ref infinity in
  for m = 0 to n - 1 do
    let open_at = row_r.(m) +. Numerics.pos (opening.(m) -. bids.(m)) in
    if open_at < !best_open then begin
      best_open := open_at;
      best_site := m
    end
  done;
  let connect_at = dist_to_served r in
  ( (if !best_open < connect_at then Some !best_site else None),
    { site = r; dual = Float.min connect_at !best_open } )

module Sc = Snapshot_codec

let w_past b (p : past) =
  Sc.w_int b p.site;
  Sc.w_float b p.dual

let r_past r =
  let site = Sc.r_int r in
  let dual = Sc.r_float r in
  { site; dual }

type t = {
  served : Ofl_types.served;
  bids : float array;  (** per-step scratch *)
  mutable past : past list;  (** newest first *)
}

let create metric ~opening_costs =
  {
    served = Ofl_types.served ~who:"Fotakis_pd" metric ~opening_costs;
    bids = Array.make (Finite_metric.size metric) 0.0;
    past = [];
  }

let step t site =
  Metrics.incr m_steps;
  let s = t.served in
  Metrics.add m_bid_evals (Array.length t.bids * List.length t.past);
  let opened, p =
    event s.metric ~bids:t.bids ~opening:s.opening_costs
      ~dist_to_served:(Array.get s.dist) t.past site
  in
  t.past <- p :: t.past;
  let dist =
    match opened with
    | Some m ->
        Metrics.incr m_facilities_opened;
        Ofl_types.open_site s m;
        Finite_metric.dist s.metric site m
    | None -> s.dist.(site)
  in
  s.assignment <- s.assignment +. dist;
  dist

let snapshot t = Ofl_types.run t.served

let duals t = List.rev_map (fun p -> p.dual) t.past

(* Persisted state: the frozen duals, then the served set — all pure
   data, written inside the enclosing algorithm's snapshot segment. *)

let write_state b t =
  Sc.w_list w_past b t.past;
  Ofl_types.write_served b t.served

let read_state metric ~opening_costs r =
  let past = Sc.r_list r_past r in
  let served = Ofl_types.read_served ~who:"Fotakis_pd" metric ~opening_costs r in
  { served; bids = Array.make (Finite_metric.size metric) 0.0; past }
