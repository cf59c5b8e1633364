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
           ~cost:t.f4.(m)))
    opened;
  t.past <- p :: t.past;
  let fac, _ = Option.get (Facility_store.nearest_large t.store ~from:r.site) in
  let service = Service.To_single fac.Facility.id in
  Facility_store.record_service t.store ~request_site:r.site service;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: the dual history plus the store; the f4 table and bid
   scratch are rebuilt. *)

let snapshot_tag = "omflp.snap.all-large.v3"

let snapshot t =
  Facility_store.base ~tag:snapshot_tag t.store (fun b ->
      Snapshot_codec.w_list Fotakis_pd.w_past b t.past;
      Facility_store.write b t.store)

let restore env blob =
  Facility_store.decode_base ~tag:snapshot_tag ~store
    (fun r ->
      let z_past = Snapshot_codec.r_list Fotakis_pd.r_past r in
      let t = create env in
      { t with past = z_past; store = Facility_store.read env r })
    blob
