open Omflp_commodity
open Omflp_metric
open Omflp_instance

type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  store : Facility_store.t;
  (* singleton.(e).(site): opening cost of {e} at [site], precomputed so
     the per-request option-A scan is an array read instead of a
     commodity-set allocation per probe (same float values — the cost
     function is pure). *)
  singleton : float array array;
}

let name = "GREEDY"
let family = Problem_env.Family.Omflp

let create ?seed:_ env =
  let metric, cost = Problem_env.require_omflp ~algo:name env in
  let n_commodities = Cost_function.n_commodities cost in
  let n_sites = Finite_metric.size metric in
  {
    metric;
    cost;
    store = Facility_store.create env ~n_commodities;
    singleton =
      Array.init n_commodities (fun e ->
          Array.init n_sites (fun site ->
              Cost_function.singleton_cost cost site e));
  }

let step t (r : Request.t) =
  (* Option A: per commodity, the cheaper of connecting to the nearest
     facility offering it or opening {e} at the request's own site. *)
  let option_a_cost =
    Cset.fold
      (fun e acc ->
        let connect =
          Facility_store.dist_offering t.store ~commodity:e ~from:r.site
        in
        let build = t.singleton.(e).(r.site) in
        acc +. Float.min connect build)
      r.demand 0.0
  in
  (* Option B: open the exact demand set at the request's own site. *)
  let option_b_cost = Cost_function.eval t.cost r.site r.demand in
  (* Option C: connect to the nearest large facility. *)
  let option_c_cost = Facility_store.dist_large t.store ~from:r.site in
  let service =
    if option_c_cost <= option_a_cost && option_c_cost <= option_b_cost then begin
      let fac, _ =
        Option.get (Facility_store.nearest_large t.store ~from:r.site)
      in
      Service.To_single fac.Facility.id
    end
    else if option_b_cost <= option_a_cost then begin
      let fac =
        Facility_store.open_facility t.store ~site:r.site
          ~kind:(Facility.Custom r.demand) ~cost:option_b_cost
      in
      Service.To_single fac.Facility.id
    end
    else begin
      let pairs =
        List.map
          (fun e ->
            let connect =
              Facility_store.dist_offering t.store ~commodity:e ~from:r.site
            in
            let build = t.singleton.(e).(r.site) in
            let fac =
              if build < connect then
                Facility_store.open_facility t.store ~site:r.site
                  ~kind:(Facility.Small e) ~cost:build
              else
                fst
                  (Option.get
                     (Facility_store.nearest_offering t.store ~commodity:e
                        ~from:r.site))
            in
            (e, fac.Facility.id))
          (Cset.elements r.demand)
      in
      Service.Per_commodity pairs
    end
  in
  Facility_store.record_service t.store ~request_site:r.site service;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: GREEDY keeps no scratch beyond the store and the pure
   singleton table, so the blob is just the store. *)

let snapshot_tag = "omflp.snap.greedy.v3"

let snapshot t =
  Facility_store.base ~tag:snapshot_tag t.store (fun b ->
      Facility_store.write b t.store)

let restore env blob =
  Facility_store.decode_base ~tag:snapshot_tag ~store
    (fun r ->
      let t = create env in
      { t with store = Facility_store.read env r })
    blob
