open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_obs

(* Work counters (lib/obs); [rand.coin_flips] counts Bernoulli draws
   actually performed (p > 0), [rand.service_fallbacks] the deterministic
   openings forced by the service guarantee. *)
let m_requests = Metrics.counter "rand.requests"

let m_coin_flips = Metrics.counter "rand.coin_flips"

let m_facilities_opened = Metrics.counter "rand.facilities_opened"

let m_service_fallbacks = Metrics.counter "rand.service_fallbacks"

type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  classes : Cost_classes.t;
  rng : Splitmix.t;
  store : Facility_store.t;
  mutable n_requests : int;
}

let name = "RAND-OMFLP"
let family = Problem_env.Family.Omflp

let create ?(seed = 0x52414e44) env =
  let metric, cost = Problem_env.require_omflp ~algo:name env in
  {
    metric;
    cost;
    classes = Cost_classes.build cost;
    rng = Splitmix.of_int seed;
    store =
      Facility_store.create env
        ~n_commodities:(Cost_function.n_commodities cost);
    n_requests = 0;
  }

(* Cumulative-minimum distances D_i = min_{j<=i} d(class_j, r) and, per
   class, the argmin site of the class itself. *)
let class_profile t key ~dist_to =
  let cs = Cost_classes.classes t.classes key in
  let k = Array.length cs in
  let cum = Array.make k infinity in
  let nearest = Array.make k (-1, infinity) in
  let acc = ref infinity in
  for i = 0 to k - 1 do
    let site, d =
      Cost_classes.nearest_site_in_class t.classes key ~dist_to ~cls_idx:i
    in
    nearest.(i) <- (site, d);
    acc := Float.min !acc d;
    cum.(i) <- !acc
  done;
  (cs, cum, nearest)

(* min_i (C_i + D_i): the cheapest build-and-connect estimate. *)
let build_estimate cs cum =
  let best = ref infinity in
  Array.iteri
    (fun i (c : Cost_classes.cls) -> best := Float.min !best (c.cost +. cum.(i)))
    cs;
  !best

let step t (r : Request.t) =
  (* One row fetch replaces the per-site [dist] calls of every class
     scan below; row_r.(m) = d(r, m) exactly. *)
  let row_r = Finite_metric.row t.metric r.site in
  let dist_to m = row_r.(m) in
  let es = Array.of_list (Cset.elements r.demand) in
  (* X(r,e) and its class profile per commodity. *)
  let profiles =
    Array.map (fun e -> class_profile t (Cost_classes.Single e) ~dist_to) es
  in
  let x_re =
    Array.mapi
      (fun i e ->
        let cs, cum, _ = profiles.(i) in
        Float.min
          (Facility_store.dist_offering t.store ~commodity:e ~from:r.site)
          (build_estimate cs cum))
      es
  in
  let x_r = Array.fold_left ( +. ) 0.0 x_re in
  let all_cs, all_cum, all_nearest =
    class_profile t Cost_classes.All ~dist_to
  in
  let z_r =
    Float.min
      (Facility_store.dist_large t.store ~from:r.site)
      (build_estimate all_cs all_cum)
  in
  let estimate = Float.min x_r z_r in
  (* Coin flips: small facilities, per commodity and class. The share
     X(r,e)/X(r) splits the request's budget across its commodities. *)
  Array.iteri
    (fun i e ->
      let cs, cum, nearest = profiles.(i) in
      let share = if x_r > 0.0 then x_re.(i) /. x_r else 0.0 in
      Array.iteri
        (fun ci (cls : Cost_classes.cls) ->
          let d_prev = if ci = 0 then estimate else cum.(ci - 1) in
          let improvement = Numerics.pos (d_prev -. cum.(ci)) in
          let build () =
            let site, _ = nearest.(ci) in
            Metrics.incr m_facilities_opened;
            ignore
              (Facility_store.open_facility t.store ~site ~kind:(Facility.Small e)
                 ~cost:(Cost_function.singleton_cost t.cost site e)
                 ~opened_at:t.n_requests)
          in
          if cls.cost = 0.0 then begin
            (* Free class: build when it beats every open facility (the
               estimate already counts the free build itself). *)
            if
              cum.(ci)
              < Facility_store.dist_offering t.store ~commodity:e ~from:r.site
            then build ()
          end
          else begin
            let p = Float.min 1.0 (improvement /. cls.cost *. share) in
            if p > 0.0 then begin
              Metrics.incr m_coin_flips;
              if Splitmix.bernoulli t.rng p then build ()
            end
          end)
        cs)
    es;
  (* Coin flips: large facilities, per class. *)
  Array.iteri
    (fun ci (cls : Cost_classes.cls) ->
      let d_prev = if ci = 0 then estimate else all_cum.(ci - 1) in
      let improvement = Numerics.pos (d_prev -. all_cum.(ci)) in
      let build () =
        let site, _ = all_nearest.(ci) in
        Metrics.incr m_facilities_opened;
        ignore
          (Facility_store.open_facility t.store ~site ~kind:Facility.Large
             ~cost:(Cost_function.full_cost t.cost site)
             ~opened_at:t.n_requests)
      in
      if cls.cost = 0.0 then begin
        if all_cum.(ci) < Facility_store.dist_large t.store ~from:r.site then
          build ()
      end
      else begin
        let p = Float.min 1.0 (improvement /. cls.cost) in
        if p > 0.0 then begin
          Metrics.incr m_coin_flips;
          if Splitmix.bernoulli t.rng p then build ()
        end
      end)
    all_cs;
  (* Service guarantee: any commodity with no reachable facility gets the
     small facility realizing its X(r,e) estimate. *)
  Array.iteri
    (fun i e ->
      if
        Facility_store.dist_offering t.store ~commodity:e ~from:r.site
        = infinity
      then begin
        let cs, _, nearest = profiles.(i) in
        let best = ref (-1) and best_v = ref infinity in
        Array.iteri
          (fun ci (cls : Cost_classes.cls) ->
            let _, d = nearest.(ci) in
            if cls.cost +. d < !best_v then begin
              best_v := cls.cost +. d;
              best := ci
            end)
          cs;
        let site, _ = nearest.(!best) in
        Metrics.incr m_service_fallbacks;
        Metrics.incr m_facilities_opened;
        ignore
          (Facility_store.open_facility t.store ~site ~kind:(Facility.Small e)
             ~cost:(Cost_function.singleton_cost t.cost site e)
             ~opened_at:t.n_requests)
      end)
    es;
  (* Connect to the cheaper of: per-commodity nearest facilities (distinct
     facilities pay once), or the nearest large facility. *)
  let per_commodity =
    Array.to_list
      (Array.map
         (fun e ->
           let fac, _ =
             Option.get
               (Facility_store.nearest_offering t.store ~commodity:e
                  ~from:r.site)
           in
           (e, fac.Facility.id))
         es)
  in
  let cost_of service =
    Service.cost
      ~facility_site:(fun id -> (Facility_store.facility t.store id).Facility.site)
      ~metric:t.metric ~request_site:r.site service
  in
  let option_a = Service.Per_commodity per_commodity in
  let service =
    match Facility_store.nearest_large t.store ~from:r.site with
    | Some (fac, d) when d <= cost_of option_a -> Service.To_single fac.Facility.id
    | _ -> option_a
  in
  Facility_store.record_service t.store ~request_site:r.site service;
  t.n_requests <- t.n_requests + 1;
  Metrics.incr m_requests;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store

let store t = t.store

(* ---------- snapshot / restore ---------- *)

(* Persisted: the RNG position (the whole point — a restored run must
   continue the coin-flip stream, not restart it) plus the store. The
   cost classes are a pure function of the cost function and are rebuilt
   by [create]. *)

let snapshot_tag = "omflp.snap.rand-omflp.v2"

let snapshot t =
  Snapshot_codec.encode ~tag:snapshot_tag (fun b ->
      Snapshot_codec.w_i64 b (Splitmix.state t.rng);
      Facility_store.write_persisted b (Facility_store.persist t.store);
      Snapshot_codec.w_int b t.n_requests)

let restore env blob =
  Snapshot_codec.decode ~tag:snapshot_tag
    (fun r ->
      let rng = Snapshot_codec.r_i64 r in
      let z_store = Facility_store.read_persisted r in
      let n_requests = Snapshot_codec.r_int r in
      let t = create env in
      {
        t with
        rng = Splitmix.create rng;
        store = Facility_store.of_persisted env z_store;
        n_requests;
      })
    blob
