open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_ofl

type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  store : Facility_store.t;
  past : Fotakis_pd.past list array;  (** per commodity, newest first *)
  (* f3.(e).(m) = opening cost of {e} at m, built lazily per commodity on
     first demand; bids is per-serve scratch. *)
  f3 : float array option array;
  bids : float array;
}

let name = "INDEP"
let family = Problem_env.Family.Omflp

let create ?seed:_ env =
  let metric, cost = Problem_env.require_omflp ~algo:name env in
  let n_commodities = Cost_function.n_commodities cost in
  {
    metric;
    cost;
    store = Facility_store.create env ~n_commodities;
    past = Array.make n_commodities [];
    f3 = Array.make n_commodities None;
    bids = Array.make (Finite_metric.size metric) 0.0;
  }

let f3_row t e =
  match t.f3.(e) with
  | Some row -> row
  | None ->
      let row =
        Array.init (Finite_metric.size t.metric) (fun m ->
            Cost_function.singleton_cost t.cost m e)
      in
      t.f3.(e) <- Some row;
      row

(* One Fotakis primal–dual step for commodity [e]: the request either
   connects at the nearest facility offering [e] or its bid completes the
   payment of a small facility {e} at some site. *)
let serve_commodity store ~bids ~opening ~past ~site e =
  let opened, p =
    Fotakis_pd.event (Facility_store.metric store) ~bids ~opening
      ~dist_to_served:(fun from ->
        Facility_store.dist_offering store ~commodity:e ~from)
      past.(e) site
  in
  Option.iter
    (fun m ->
      ignore
        (Facility_store.open_facility store ~site:m ~kind:(Facility.Small e)
           ~cost:opening.(m)))
    opened;
  past.(e) <- p :: past.(e);
  let fac, _ =
    Option.get (Facility_store.nearest_offering store ~commodity:e ~from:site)
  in
  (e, fac.Facility.id)

let step t (r : Request.t) =
  let pairs =
    List.map
      (fun e ->
        serve_commodity t.store ~bids:t.bids ~opening:(f3_row t e)
          ~past:t.past ~site:r.site e)
      (Cset.elements r.demand)
  in
  let service = Service.Per_commodity pairs in
  Facility_store.record_service t.store ~request_site:r.site service;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: per-commodity dual history plus the store; the lazy f3
   rows and the bid scratch are rebuilt. *)

let snapshot_tag = "omflp.snap.indep.v3"

let snapshot t =
  Facility_store.base ~tag:snapshot_tag t.store (fun b ->
      Snapshot_codec.w_array (Snapshot_codec.w_list Fotakis_pd.w_past) b t.past;
      Facility_store.write b t.store)

let restore env blob =
  Facility_store.decode_base ~tag:snapshot_tag ~store
    (fun r ->
      let z_past =
        Snapshot_codec.r_array (Snapshot_codec.r_list Fotakis_pd.r_past) r
      in
      let t = create env in
      let store = Facility_store.read env r in
      if Array.length z_past <> Array.length t.past then
        failwith "Indep_baseline.restore: commodity count mismatch";
      Array.blit z_past 0 t.past 0 (Array.length t.past);
      { t with store })
    blob
