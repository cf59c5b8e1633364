open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance

(* LEASE-PD — multi-facility leasing primal–dual in the style of
   Markarian et al. (arXiv:2006.16762), riding the Fotakis-flavoured PD
   core the OMFLP baselines use: facilities are opened as leases of one
   of K types, type k living for durations.(k) steps at factors.(k)
   times the configuration cost.

   Each arriving (request, commodity) pair raises a dual until it either
   reaches the connection cost of a currently-live lease or completes
   the payment of a (site, lease-type) pair, where past requests bid
   toward the pair only while they are inside the lease's window
   (p.time > now - duration) — the parking-permit aggregation rule:
   longer leases collect bids from deeper history but cost a larger
   factor. A facility's lease type is recoverable from its recorded
   construction cost ({!Problem_env.classify_facility_cost}), so the
   live-lease view is a pure function of the store and the environment
   and never enters the snapshot. *)

type past = { site : int; dual : float; time : int }

type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  durations : int array;
  factors : float array;
  env : Problem_env.t;
  store : Facility_store.t;
  s : int;
  n_sites : int;
  f3 : float array array; (* f3.(e).(m) = f^{{e}}_m *)
  past : past list array; (* per commodity, newest first *)
  mutable n_requests : int;
}

let name = "LEASE-PD"
let family = Problem_env.Family.Multi_facility_leasing

let create ?seed:_ env =
  let metric, cost, durations, factors =
    Problem_env.require_leasing ~algo:name env
  in
  let s = Cost_function.n_commodities cost in
  let n_sites = Finite_metric.size metric in
  {
    metric;
    cost;
    durations;
    factors;
    env;
    store = Facility_store.create env ~n_commodities:s;
    s;
    n_sites;
    f3 =
      Array.init s (fun e ->
          Array.init n_sites (fun m -> Cost_function.singleton_cost cost m e));
    past = Array.make s [];
    n_requests = 0;
  }

(* A facility's lease duration, recovered from its construction cost.
   The store's nearest index ignores expiry, so liveness questions go
   through this scan instead. *)
let duration_of t (f : Facility.t) =
  match
    Problem_env.classify_facility_cost t.env ~site:f.Facility.site
      ~offered:f.Facility.offered ~cost:f.Facility.cost
  with
  | Ok (Some d) -> d
  | Ok None | Error _ ->
      failwith (Printf.sprintf "%s: facility %d has a non-lease cost" name
                  f.Facility.id)

let live t (f : Facility.t) ~now =
  f.Facility.opened_at <= now && now < f.Facility.opened_at + duration_of t f

(* Cheapest live lease offering [e] for a request at [site]; ties go to
   the earliest opening. *)
let best_live t ~commodity ~site ~now =
  List.fold_left
    (fun acc (f : Facility.t) ->
      if Cset.mem f.Facility.offered commodity && live t f ~now then
        let c = Finite_metric.dist t.metric site f.Facility.site in
        match acc with
        | Some (_, best) when best <= c -> acc
        | _ -> Some (f.Facility.id, c)
      else acc)
    None
    (Facility_store.facilities t.store)

let serve_commodity t ~site e =
  let now = t.n_requests in
  let connect_at =
    match best_live t ~commodity:e ~site ~now with
    | Some (_, c) -> c
    | None -> infinity
  in
  let row_r = Finite_metric.row t.metric site in
  let f3e = t.f3.(e) in
  let best_site = ref (-1) and best_kind = ref (-1) in
  let best_open = ref infinity in
  for m = 0 to t.n_sites - 1 do
    (* Bids from past requests of this commodity, windowed per lease
       type: request p pays toward a type-k lease at m only if a lease
       opened now would still be running had it opened at p.time — the
       aggregation that makes long leases pay off. *)
    for k = 0 to Array.length t.durations - 1 do
      let window = t.durations.(k) in
      let bids =
        List.fold_left
          (fun acc p ->
            if p.time > now - window then
              acc +. Numerics.pos (p.dual -. Finite_metric.dist t.metric p.site m)
            else acc)
          0.0 t.past.(e)
      in
      let open_at =
        row_r.(m) +. Numerics.pos ((t.factors.(k) *. f3e.(m)) -. bids)
      in
      if open_at < !best_open then begin
        best_open := open_at;
        best_site := m;
        best_kind := k
      end
    done
  done;
  let dual = Float.min connect_at !best_open in
  if !best_open < connect_at then
    ignore
      (Facility_store.open_facility t.store ~site:!best_site
         ~kind:(Facility.Small e)
         ~cost:(t.factors.(!best_kind) *. f3e.(!best_site))
         ~opened_at:now);
  t.past.(e) <- { site; dual; time = now } :: t.past.(e);
  match best_live t ~commodity:e ~site ~now with
  | Some (id, _) -> (e, id)
  | None -> failwith (name ^ ": no live lease after opening")

let step t (r : Request.t) =
  let pairs =
    List.map (serve_commodity t ~site:r.Request.site)
      (Cset.elements r.Request.demand)
  in
  let service = Service.Per_commodity pairs in
  Facility_store.record_service t.store ~request_site:r.Request.site service;
  t.n_requests <- t.n_requests + 1;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: the windowed dual history, the store, and the clock. *)

let snapshot_tag = "omflp.snap.lease-pd.v2"

let w_past b (p : past) =
  Snapshot_codec.w_int b p.site;
  Snapshot_codec.w_float b p.dual;
  Snapshot_codec.w_int b p.time

let r_past r =
  let site = Snapshot_codec.r_int r in
  let dual = Snapshot_codec.r_float r in
  let time = Snapshot_codec.r_int r in
  { site; dual; time }

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
      if Array.length z_past <> t.s then
        failwith "Lease_pd.restore: commodity count mismatch";
      Array.blit z_past 0 t.past 0 t.s;
      { t with store = Facility_store.of_persisted env z_store; n_requests })
    blob
