open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance

type heavy_past = { site : int; dual : float }

type t = {
  metric : Finite_metric.t;
  cost : Cost_function.t;
  heavy : Cset.t;
  light : Cset.t;
  light_map : int array;  (** light sub-universe index → original commodity *)
  inner : Pd_omflp.t;  (** PD-OMFLP over the light sub-universe *)
  store : Facility_store.t;  (** full-universe accounting *)
  fid_map : (int, int) Hashtbl.t;  (** inner facility id → outer id *)
  mutable inner_mirrored : int;
  heavy_past : heavy_past list array;  (** per original commodity *)
  mutable n_requests : int;
}

let name = "HEAVY-AWARE"
let family = Problem_env.Family.Omflp

let create_with_heavy ~heavy env =
  let metric, cost = Problem_env.require_omflp ~algo:name env in
  let k = Cost_function.n_commodities cost in
  if Cset.n_commodities heavy <> k then
    invalid_arg "Heavy_aware.create_with_heavy: heavy from wrong universe";
  let light = Cset.diff (Cset.full ~n_commodities:k) heavy in
  if Cset.is_empty light then
    invalid_arg "Heavy_aware.create_with_heavy: no light commodities left";
  let light_cost, light_map = Cost_function.project cost ~keep:light in
  {
    metric;
    cost;
    heavy;
    light;
    light_map;
    inner = Pd_omflp.create (Problem_env.omflp metric light_cost);
    store = Facility_store.create env ~n_commodities:k;
    fid_map = Hashtbl.create 64;
    inner_mirrored = 0;
    heavy_past = Array.make k [];
    n_requests = 0;
  }

let create ?seed:_ env =
  create_with_heavy ~heavy:(Heavy.detect (Problem_env.cost env)) env

let heavy_set t = t.heavy

(* Replay inner facilities into the outer store, translating kinds back to
   the full universe. A light-side "large" facility offers exactly the
   light set. *)
let mirror_inner t =
  let k = Cset.n_commodities t.light in
  List.iteri
    (fun idx (f : Facility.t) ->
      if idx >= t.inner_mirrored then begin
        let kind =
          match f.kind with
          | Facility.Small e' -> Facility.Small t.light_map.(e')
          | Facility.Large ->
              if Cset.cardinal t.light = k then Facility.Large
              else Facility.Custom t.light
          | Facility.Custom sigma' ->
              Facility.Custom
                (Cset.fold
                   (fun e' acc -> Cset.add acc t.light_map.(e'))
                   sigma'
                   (Cset.empty ~n_commodities:k))
        in
        let outer =
          Facility_store.open_facility t.store ~site:f.site ~kind ~cost:f.cost
            ~opened_at:t.n_requests
        in
        Hashtbl.replace t.fid_map f.id outer.Facility.id;
        t.inner_mirrored <- t.inner_mirrored + 1
      end)
    (Facility_store.facilities (Pd_omflp.store t.inner))

(* One Fotakis primal-dual step for a heavy commodity against the outer
   store (only heavy small facilities ever offer it). *)
let serve_heavy t ~site e =
  let n_sites = Finite_metric.size t.metric in
  let connect_at = Facility_store.dist_offering t.store ~commodity:e ~from:site in
  let best_site = ref (-1) in
  let best_open = ref infinity in
  for m = 0 to n_sites - 1 do
    let bids =
      List.fold_left
        (fun acc p ->
          let cap =
            Float.min p.dual
              (Facility_store.dist_offering t.store ~commodity:e ~from:p.site)
          in
          acc +. Numerics.pos (cap -. Finite_metric.dist t.metric p.site m))
        0.0 t.heavy_past.(e)
    in
    let open_at =
      Finite_metric.dist t.metric site m
      +. Numerics.pos (Cost_function.singleton_cost t.cost m e -. bids)
    in
    if open_at < !best_open then begin
      best_open := open_at;
      best_site := m
    end
  done;
  let dual = Float.min connect_at !best_open in
  if !best_open < connect_at then
    ignore
      (Facility_store.open_facility t.store ~site:!best_site
         ~kind:(Facility.Small e)
         ~cost:(Cost_function.singleton_cost t.cost !best_site e)
         ~opened_at:t.n_requests);
  t.heavy_past.(e) <- { site; dual } :: t.heavy_past.(e);
  let fac, _ =
    Option.get (Facility_store.nearest_offering t.store ~commodity:e ~from:site)
  in
  (e, fac.Facility.id)

let step t (r : Request.t) =
  let light_demand = Cset.inter r.demand t.light in
  let heavy_demand = Cset.inter r.demand t.heavy in
  (* Light side: project the demand and run the inner PD-OMFLP step. *)
  let light_pairs, light_single =
    if Cset.is_empty light_demand then ([], None)
    else begin
      let sub_k = Array.length t.light_map in
      let sub_demand =
        Array.to_list (Array.init sub_k Fun.id)
        |> List.filter (fun e' -> Cset.mem light_demand t.light_map.(e'))
        |> Cset.of_list ~n_commodities:sub_k
      in
      let inner_service =
        Pd_omflp.step t.inner (Request.make ~site:r.site ~demand:sub_demand)
      in
      mirror_inner t;
      match inner_service with
      | Service.To_single fid ->
          let outer = Hashtbl.find t.fid_map fid in
          ( List.map
              (fun e -> (e, outer))
              (Cset.elements light_demand),
            Some outer )
      | Service.Per_commodity pairs ->
          ( List.map
              (fun (e', fid) -> (t.light_map.(e'), Hashtbl.find t.fid_map fid))
              pairs,
            None )
    end
  in
  (* Heavy side: independent per-commodity primal-dual. *)
  let heavy_pairs =
    List.map (fun e -> serve_heavy t ~site:r.site e) (Cset.elements heavy_demand)
  in
  let service =
    match (light_single, heavy_pairs) with
    | Some fid, [] -> Service.To_single fid
    | _ -> Service.Per_commodity (light_pairs @ heavy_pairs)
  in
  Facility_store.record_service t.store ~request_site:r.site service;
  t.n_requests <- t.n_requests + 1;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted: the heavy set (it may have been overridden via
   [create_with_heavy], so detection is not re-run), the inner PD run as
   a nested blob, and the outer bookkeeping. The light projection is a
   pure function of (cost, heavy) and is rebuilt. The fid map is
   serialized sorted by inner id so the blob does not depend on hashtable
   iteration order. *)

let snapshot_tag = "omflp.snap.heavy-aware.v2"

let w_heavy_past b (p : heavy_past) =
  Snapshot_codec.w_int b p.site;
  Snapshot_codec.w_float b p.dual

let r_heavy_past r =
  let site = Snapshot_codec.r_int r in
  let dual = Snapshot_codec.r_float r in
  { site; dual }

let snapshot t =
  Snapshot_codec.encode ~tag:snapshot_tag (fun b ->
      Cset.write b t.heavy;
      Snapshot_codec.w_string b (Pd_omflp.snapshot t.inner);
      Facility_store.write_persisted b (Facility_store.persist t.store);
      let fid_pairs =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fid_map [])
      in
      Snapshot_codec.w_list
        (fun b (k, v) ->
          Snapshot_codec.w_int b k;
          Snapshot_codec.w_int b v)
        b fid_pairs;
      Snapshot_codec.w_int b t.inner_mirrored;
      Snapshot_codec.w_array (Snapshot_codec.w_list w_heavy_past) b
        t.heavy_past;
      Snapshot_codec.w_int b t.n_requests)

let restore env blob =
  Snapshot_codec.decode ~tag:snapshot_tag
    (fun r ->
      let z_heavy = Cset.read r in
      let z_inner = Snapshot_codec.r_string r in
      let z_store = Facility_store.read_persisted r in
      let z_fid_map =
        Snapshot_codec.r_list
          (fun r ->
            let k = Snapshot_codec.r_int r in
            let v = Snapshot_codec.r_int r in
            (k, v))
          r
      in
      let z_inner_mirrored = Snapshot_codec.r_int r in
      let z_heavy_past =
        Snapshot_codec.r_array (Snapshot_codec.r_list r_heavy_past) r
      in
      let z_n_requests = Snapshot_codec.r_int r in
      let t = create_with_heavy ~heavy:z_heavy env in
      let light_cost, _ = Cost_function.project t.cost ~keep:t.light in
      List.iter (fun (k, v) -> Hashtbl.replace t.fid_map k v) z_fid_map;
      if Array.length z_heavy_past <> Array.length t.heavy_past then
        failwith "Heavy_aware.restore: commodity count mismatch";
      Array.blit z_heavy_past 0 t.heavy_past 0 (Array.length t.heavy_past);
      {
        t with
        inner = Pd_omflp.restore (Problem_env.omflp t.metric light_cost) z_inner;
        store = Facility_store.of_persisted env z_store;
        inner_mirrored = z_inner_mirrored;
        n_requests = z_n_requests;
      })
    blob
