open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_ofl

module type OFL_SPEC = sig
  module A : Ofl_types.ALGORITHM

  val name : string

  (** [create ?seed ~commodity metric ~opening_costs] builds the
      commodity's single-commodity instance; randomized algorithms derive
      their stream from [seed] and [commodity]. *)
  val create :
    ?seed:int ->
    commodity:int ->
    Finite_metric.t ->
    opening_costs:float array ->
    A.t
end

module Make (S : OFL_SPEC) : Algo_intf.ALGO = struct
  (* Each commodity runs its own single-commodity OFL instance whose
     opening cost at site m is the singleton cost f^{e}_m; openings are
     mirrored into the shared Facility_store as Small facilities, so the
     joint run is validated, costed, and digested exactly like every
     native algorithm. This is the per-commodity decomposition the paper
     compares against (INDEP), but driven by the classical OFL
     algorithms themselves. *)
  type slot = {
    ofl : S.A.t;
    costs : float array; (* singleton costs of this commodity, per site *)
    mutable mirrored : int; (* prefix of OFL facilities already mirrored *)
  }

  type t = {
    metric : Finite_metric.t;
    cost : Cost_function.t;
    store : Facility_store.t;
    seed : int option;
    slots : slot option array;
    mutable n_requests : int;
  }

  let name = S.name
  let family = Problem_env.Family.Omflp

  let create ?seed env =
    let metric, cost = Problem_env.require_omflp ~algo:name env in
    {
      metric;
      cost;
      store =
        Facility_store.create env
          ~n_commodities:(Cost_function.n_commodities cost);
      seed;
      slots = Array.make (Cost_function.n_commodities cost) None;
      n_requests = 0;
    }

  let slot t e =
    match t.slots.(e) with
    | Some s -> s
    | None ->
        let costs =
          Array.init (Finite_metric.size t.metric) (fun m ->
              Cost_function.singleton_cost t.cost m e)
        in
        let s =
          {
            ofl = S.create ?seed:t.seed ~commodity:e t.metric ~opening_costs:costs;
            costs;
            mirrored = 0;
          }
        in
        t.slots.(e) <- Some s;
        s

  (* Mirror any facilities the OFL instance opened since the last sync.
     [Ofl_types.run] lists facilities in opening order, so the new ones
     are the suffix past [mirrored]. *)
  let sync_openings t e (s : slot) =
    let facs = (S.A.snapshot s.ofl).Ofl_types.facilities in
    let fresh = List.filteri (fun i _ -> i >= s.mirrored) facs in
    List.iter
      (fun site ->
        ignore
          (Facility_store.open_facility t.store ~site ~kind:(Facility.Small e)
             ~cost:s.costs.(site) ~opened_at:t.n_requests))
      fresh;
    s.mirrored <- s.mirrored + List.length fresh

  let step t (r : Request.t) =
    let pairs_rev = ref [] in
    Cset.iter
      (fun e ->
        let s = slot t e in
        ignore (S.A.step s.ofl r.site);
        sync_openings t e s;
        let fac, _ =
          (* The OFL algorithm just served this request, so some facility
             offering [e] is open. *)
          Option.get
            (Facility_store.nearest_offering t.store ~commodity:e ~from:r.site)
        in
        pairs_rev := (e, fac.Facility.id) :: !pairs_rev)
      r.demand;
    let service = Service.Per_commodity (List.rev !pairs_rev) in
    Facility_store.record_service t.store ~request_site:r.site service;
    t.n_requests <- t.n_requests + 1;
    service

  let run_so_far t = Run.of_store ~algorithm:name t.store
  let store t = t.store

  (* Persisted: the creation seed (so commodities first requested after a
     restore derive the same per-commodity streams), the shared store, and
     each live slot as (inner OFL blob, mirrored prefix length). Slot
     opening-cost tables are pure and rebuilt. *)

  let snapshot_tag = "omflp.snap.ofl-adapter." ^ S.name ^ ".v2"

  let snapshot t =
    Snapshot_codec.encode ~tag:snapshot_tag (fun b ->
        Snapshot_codec.w_opt Snapshot_codec.w_int b t.seed;
        Facility_store.write_persisted b (Facility_store.persist t.store);
        Snapshot_codec.w_array
          (Snapshot_codec.w_opt (fun b s ->
               Snapshot_codec.w_string b (S.A.save_state s.ofl);
               Snapshot_codec.w_int b s.mirrored))
          b t.slots;
        Snapshot_codec.w_int b t.n_requests)

  let restore env blob =
    Snapshot_codec.decode ~tag:snapshot_tag
      (fun r ->
        let z_seed = Snapshot_codec.r_opt Snapshot_codec.r_int r in
        let z_store = Facility_store.read_persisted r in
        let z_slots =
          Snapshot_codec.r_array
            (Snapshot_codec.r_opt (fun r ->
                 let blob = Snapshot_codec.r_string r in
                 let mirrored = Snapshot_codec.r_int r in
                 (blob, mirrored)))
            r
        in
        let z_n_requests = Snapshot_codec.r_int r in
        let t = create ?seed:z_seed env in
        if Array.length z_slots <> Array.length t.slots then
          failwith
            (Printf.sprintf
               "%s.restore: snapshot has %d commodities, cost function has %d"
               S.name (Array.length z_slots) (Array.length t.slots));
        Array.iteri
          (fun e zs ->
            match zs with
            | None -> ()
            | Some (ofl_blob, mirrored) ->
                let costs =
                  Array.init (Finite_metric.size t.metric) (fun m ->
                      Cost_function.singleton_cost t.cost m e)
                in
                let ofl =
                  S.A.restore_state t.metric ~opening_costs:costs ofl_blob
                in
                t.slots.(e) <- Some { ofl; costs; mirrored })
          z_slots;
        {
          t with
          store = Facility_store.of_persisted env z_store;
          n_requests = z_n_requests;
        })
      blob
end

module Meyerson_ofl = Make (struct
  module A = Meyerson

  let name = "MEYERSON-OFL"

  let create ?seed ~commodity metric ~opening_costs =
    let base = Option.value seed ~default:0x4d455945 in
    A.create_seeded metric ~opening_costs
      ~rng:(Splitmix.of_int (base + (7919 * (commodity + 1))))
end)

module Fotakis_ofl = Make (struct
  module A = Fotakis_pd

  let name = "FOTAKIS-OFL"

  let create ?seed:_ ~commodity:_ metric ~opening_costs =
    A.create metric ~opening_costs
end)
