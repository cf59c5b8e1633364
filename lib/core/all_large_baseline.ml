open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_ofl

type t = {
  store : Facility_store.t;
  f4 : float array;  (** f4.(m) = full opening cost at m *)
  bids : float array;  (** per-step scratch *)
  mutable past : Fotakis_pd.past list;
  mutable n_requests : int;
}

let name = "ALL-LARGE"
let family = Problem_env.Family.Omflp

let create ?seed:_ env =
  let metric, cost = Problem_env.require_omflp ~algo:name env in
  let n_sites = Finite_metric.size metric in
  {
    store =
      Facility_store.create env
        ~n_commodities:(Cost_function.n_commodities cost);
    f4 = Array.init n_sites (fun m -> Cost_function.full_cost cost m);
    bids = Array.make n_sites 0.0;
    past = [];
    n_requests = 0;
  }

let step t (r : Request.t) =
  let opened, p =
    Fotakis_pd.event (Facility_store.metric t.store) ~bids:t.bids ~opening:t.f4
      ~dist_to_served:(fun from -> Facility_store.dist_large t.store ~from)
      t.past r.site
  in
  Option.iter
    (fun m ->
      ignore
        (Facility_store.open_facility t.store ~site:m ~kind:Facility.Large
           ~cost:t.f4.(m) ~opened_at:t.n_requests))
    opened;
  t.past <- p :: t.past;
  let fac, _ = Option.get (Facility_store.nearest_large t.store ~from:r.site) in
  let service = Service.To_single fac.Facility.id in
  Facility_store.record_service t.store ~request_site:r.site service;
  t.n_requests <- t.n_requests + 1;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: the dual history plus the store; the f4 table and bid
   scratch are rebuilt. *)

let snapshot_tag = "omflp.snap.all-large.v3"

let snapshot t =
  Snapshot_codec.base ~tag:snapshot_tag ~count:t.n_requests (fun b ->
      Snapshot_codec.w_list Fotakis_pd.w_past b t.past;
      Facility_store.write b t.store;
      Snapshot_codec.w_int b t.n_requests)

let restore env blob =
  Snapshot_codec.decode ~tag:snapshot_tag
    (fun r ->
      let z_past = Snapshot_codec.r_list Fotakis_pd.r_past r in
      let t = create env in
      let store = Facility_store.read env r in
      let n_requests = Snapshot_codec.r_int r in
      { t with past = z_past; store; n_requests })
    blob
