open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance

type past = { site : int; dual : float }

type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  store : Facility_store.t;
  past : past list array;  (** per commodity, newest first *)
  (* f3.(e).(m) = opening cost of {e} at m, built lazily per commodity on
     first demand; bids is per-serve scratch. The outer-past/inner-site
     accumulation below adds the same float terms per cell in the same
     order as the historical per-site fold — decisions are
     bit-identical. *)
  f3 : float array option array;
  bids : float array;
  mutable n_requests : int;
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
    n_requests = 0;
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

(* One Fotakis primal–dual step for a single commodity: the request either
   connects at the nearest facility's distance or its bid completes the
   payment of a facility at some site. *)
let serve_commodity t ~site e =
  let n_sites = Finite_metric.size t.metric in
  let connect_at = Facility_store.dist_offering t.store ~commodity:e ~from:site in
  let bids = t.bids in
  Array.fill bids 0 n_sites 0.0;
  List.iter
    (fun p ->
      let cap =
        Float.min p.dual
          (Facility_store.dist_offering t.store ~commodity:e ~from:p.site)
      in
      let row_p = Finite_metric.row t.metric p.site in
      for m = 0 to n_sites - 1 do
        bids.(m) <- bids.(m) +. Numerics.pos (cap -. row_p.(m))
      done)
    t.past.(e);
  let f3e = f3_row t e in
  let row_r = Finite_metric.row t.metric site in
  let best_site = ref (-1) in
  let best_open = ref infinity in
  for m = 0 to n_sites - 1 do
    let open_at = row_r.(m) +. Numerics.pos (f3e.(m) -. bids.(m)) in
    if open_at < !best_open then begin
      best_open := open_at;
      best_site := m
    end
  done;
  let dual = Float.min connect_at !best_open in
  if !best_open < connect_at then
    ignore
      (Facility_store.open_facility t.store ~site:!best_site
         ~kind:(Facility.Small e) ~cost:f3e.(!best_site)
         ~opened_at:t.n_requests);
  t.past.(e) <- { site; dual } :: t.past.(e);
  let fac, _ =
    Option.get (Facility_store.nearest_offering t.store ~commodity:e ~from:site)
  in
  (e, fac.Facility.id)

let step t (r : Request.t) =
  let pairs =
    List.map (serve_commodity t ~site:r.site) (Cset.elements r.demand)
  in
  let service = Service.Per_commodity pairs in
  Facility_store.record_service t.store ~request_site:r.site service;
  t.n_requests <- t.n_requests + 1;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: per-commodity dual history plus the store; the lazy f3
   rows and the bid scratch are rebuilt. *)

let snapshot_tag = "omflp.snap.indep.v2"

let w_past b (p : past) =
  Snapshot_codec.w_int b p.site;
  Snapshot_codec.w_float b p.dual

let r_past r =
  let site = Snapshot_codec.r_int r in
  let dual = Snapshot_codec.r_float r in
  { site; dual }

let snapshot t =
  Snapshot_codec.encode ~tag:snapshot_tag (fun b ->
      Snapshot_codec.w_array (Snapshot_codec.w_list w_past) b t.past;
      Facility_store.write_persisted b (Facility_store.persist t.store);
      Snapshot_codec.w_int b t.n_requests)

let restore env blob =
  Snapshot_codec.decode ~tag:snapshot_tag
    (fun r ->
      let z_past = Snapshot_codec.r_array (Snapshot_codec.r_list r_past) r in
      let z_store = Facility_store.read_persisted r in
      let n_requests = Snapshot_codec.r_int r in
      let t = create env in
      if Array.length z_past <> Array.length t.past then
        failwith "Indep_baseline.restore: commodity count mismatch";
      Array.blit z_past 0 t.past 0 (Array.length t.past);
      {
        t with
        store = Facility_store.of_persisted env z_store;
        n_requests;
      })
    blob
