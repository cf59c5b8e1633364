open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_ofl

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
  heavy_past : Fotakis_pd.past list array;  (** per original commodity *)
  heavy_costs : float array array;  (** [f^{e}_m] rows, heavy [e] only *)
  bids : float array;  (** heavy-step scratch *)
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
    heavy_costs =
      Array.init k (fun e ->
          if Cset.mem heavy e then
            Array.init (Finite_metric.size metric) (fun m ->
                Cost_function.singleton_cost cost m e)
          else [||]);
    bids = Array.make (Finite_metric.size metric) 0.0;
  }

let create ?seed:_ env =
  create_with_heavy ~heavy:(Heavy.detect (Problem_env.cost env)) env

let heavy_set t = t.heavy

(* Replay the inner facilities opened since the last call into the outer
   store, translating kinds back to the full universe. A light-side
   "large" facility offers exactly the light set. *)
let mirror_inner t =
  let k = Cset.n_commodities t.light in
  let inner = Pd_omflp.store t.inner in
  for id = t.inner_mirrored to Facility_store.n_facilities inner - 1 do
    let f = Facility_store.facility inner id in
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
    in
    Hashtbl.replace t.fid_map id outer.Facility.id;
    t.inner_mirrored <- id + 1
  done

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
  (* Heavy side: INDEP's per-commodity primal-dual against the outer
     store (only heavy small facilities ever offer a heavy commodity). *)
  let heavy_pairs =
    List.map
      (fun e ->
        Indep_baseline.serve_commodity t.store ~bids:t.bids
          ~opening:t.heavy_costs.(e) ~past:t.heavy_past ~site:r.site e)
      (Cset.elements heavy_demand)
  in
  let service =
    match (light_single, heavy_pairs) with
    | Some fid, [] -> Service.To_single fid
    | _ -> Service.Per_commodity (light_pairs @ heavy_pairs)
  in
  Facility_store.record_service t.store ~request_site:r.site service;
  service

let run_so_far t = Run.of_store ~algorithm:name t.store
let store t = t.store

(* Persisted, always as a base segment: the heavy set (it may have been
   overridden via [create_with_heavy], so detection is not re-run), the
   inner PD run's whole state, and the outer bookkeeping. The light
   projection is a pure function of (cost, heavy) and is rebuilt. The fid
   map is serialized sorted by inner id so the blob does not depend on
   hashtable iteration order. *)

let snapshot_tag = "omflp.snap.heavy-aware.v4"

let snapshot t =
  Facility_store.base ~tag:snapshot_tag t.store (fun b ->
      Cset.write b t.heavy;
      Pd_omflp.write b t.inner;
      Facility_store.write b t.store;
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
      Snapshot_codec.w_array (Snapshot_codec.w_list Fotakis_pd.w_past) b
        t.heavy_past)

let restore env blob =
  Facility_store.decode_base ~tag:snapshot_tag ~store
    (fun r ->
      let z_heavy = Cset.read r in
      let t = create_with_heavy ~heavy:z_heavy env in
      let light_cost, _ = Cost_function.project t.cost ~keep:t.light in
      let inner = Pd_omflp.read (Problem_env.omflp t.metric light_cost) r in
      let store = Facility_store.read env r in
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
        Snapshot_codec.r_array (Snapshot_codec.r_list Fotakis_pd.r_past) r
      in
      List.iter (fun (k, v) -> Hashtbl.replace t.fid_map k v) z_fid_map;
      if Array.length z_heavy_past <> Array.length t.heavy_past then
        failwith "Heavy_aware.restore: commodity count mismatch";
      Array.blit z_heavy_past 0 t.heavy_past 0 (Array.length t.heavy_past);
      { t with inner; store; inner_mirrored = z_inner_mirrored })
    blob
