open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance

type past = { site : int; dual : float }

type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  store : Facility_store.t;
  (* f4.(m) = full opening cost at m; bids is per-step scratch. Both the
     table and the outer-past/inner-site bid accumulation below add the
     same float terms in the same per-cell order as the historical
     per-site fold, so decisions are bit-identical. *)
  f4 : float array;
  bids : float array;
  mutable past : past list;
  mutable n_requests : int;
}

let name = "ALL-LARGE"
let family = Problem_env.Family.Omflp

let create ?seed:_ env =
  let metric, cost = Problem_env.require_omflp ~algo:name env in
  let n_sites = Finite_metric.size metric in
  {
    metric;
    cost;
    store =
      Facility_store.create env
        ~n_commodities:(Cost_function.n_commodities cost);
    f4 = Array.init n_sites (fun m -> Cost_function.full_cost cost m);
    bids = Array.make n_sites 0.0;
    past = [];
    n_requests = 0;
  }

let step t (r : Request.t) =
  let n_sites = Finite_metric.size t.metric in
  let connect_at = Facility_store.dist_large t.store ~from:r.site in
  let bids = t.bids in
  Array.fill bids 0 n_sites 0.0;
  List.iter
    (fun p ->
      let cap =
        Float.min p.dual (Facility_store.dist_large t.store ~from:p.site)
      in
      let row_p = Finite_metric.row t.metric p.site in
      for m = 0 to n_sites - 1 do
        bids.(m) <- bids.(m) +. Numerics.pos (cap -. row_p.(m))
      done)
    t.past;
  let row_r = Finite_metric.row t.metric r.site in
  let best_site = ref (-1) in
  let best_open = ref infinity in
  for m = 0 to n_sites - 1 do
    let open_at = row_r.(m) +. Numerics.pos (t.f4.(m) -. bids.(m)) in
    if open_at < !best_open then begin
      best_open := open_at;
      best_site := m
    end
  done;
  let dual = Float.min connect_at !best_open in
  if !best_open < connect_at then
    ignore
      (Facility_store.open_facility t.store ~site:!best_site ~kind:Facility.Large
         ~cost:t.f4.(!best_site) ~opened_at:t.n_requests);
  t.past <- { site = r.site; dual } :: t.past;
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

let w_past b (p : past) =
  Snapshot_codec.w_int b p.site;
  Snapshot_codec.w_float b p.dual

let r_past r =
  let site = Snapshot_codec.r_int r in
  let dual = Snapshot_codec.r_float r in
  { site; dual }

let snapshot t =
  Snapshot_codec.base ~tag:snapshot_tag ~count:t.n_requests (fun b ->
      Snapshot_codec.w_list w_past b t.past;
      Facility_store.write b t.store;
      Snapshot_codec.w_int b t.n_requests)

let restore env blob =
  Snapshot_codec.decode ~tag:snapshot_tag
    (fun r ->
      let z_past = Snapshot_codec.r_list r_past r in
      let t = create env in
      let store = Facility_store.read env r in
      let n_requests = Snapshot_codec.r_int r in
      { t with past = z_past; store; n_requests })
    blob
