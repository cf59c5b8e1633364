open Omflp_prelude
open Omflp_metric

(* Facility ids are the sequential opening order, so the id->facility map
   is a flat growable array (doubling push) rather than a hashtable, and
   services append to a flat array the same way. *)
type t = {
  env : Omflp_instance.Problem_env.t;
  metric : Finite_metric.t; (* = Problem_env.metric env, cached for hot loops *)
  n_commodities : int;
  mutable fac : Facility.t array; (* slots 0..count-1 valid, opening order *)
  mutable count : int;
  index : Nearest_index.t;
  mutable svc : Service.t array; (* slots 0..n_services-1 valid *)
  mutable n_services : int;
  mutable construction : float;
  mutable assignment : float;
  (* Facilities and services at the last [mark]: a delta writes the
     ones after them. *)
  mutable mark_fac : int;
  mutable mark_svc : int;
}

let create env ~n_commodities =
  let metric = Omflp_instance.Problem_env.metric env in
  let n_sites = Finite_metric.size metric in
  {
    env;
    metric;
    n_commodities;
    fac = [||];
    count = 0;
    index = Nearest_index.create ~n_commodities ~n_sites;
    svc = [||];
    n_services = 0;
    construction = 0.0;
    assignment = 0.0;
    mark_fac = 0;
    mark_svc = 0;
  }

let metric t = t.metric
let index t = t.index

let push_fac t f =
  let cap = Array.length t.fac in
  if t.count = cap then begin
    let grown = Array.make (max 8 (2 * cap)) f in
    Array.blit t.fac 0 grown 0 t.count;
    t.fac <- grown
  end;
  t.fac.(t.count) <- f;
  t.count <- t.count + 1

let push_svc t s =
  let cap = Array.length t.svc in
  if t.n_services = cap then begin
    let grown = Array.make (max 16 (2 * cap)) s in
    Array.blit t.svc 0 grown 0 t.n_services;
    t.svc <- grown
  end;
  t.svc.(t.n_services) <- s;
  t.n_services <- t.n_services + 1

let n_requests t = t.n_services

let open_facility t ~site ~kind ~cost =
  if cost < 0.0 then invalid_arg "Facility_store.open_facility: negative cost";
  let offered = Facility.offered_of_kind ~n_commodities:t.n_commodities kind in
  let fac =
    { Facility.id = t.count; site; kind; offered; cost; opened_at = t.n_services }
  in
  push_fac t fac;
  t.construction <- t.construction +. cost;
  Nearest_index.note_opened t.index t.metric ~site ~offered ~id:fac.id;
  fac

let facilities t = Array.to_list (Array.sub t.fac 0 t.count)
let n_facilities t = t.count

let fold_facilities f init t =
  let acc = ref init in
  for i = 0 to t.count - 1 do
    acc := f !acc t.fac.(i)
  done;
  !acc

let facility t id =
  if id < 0 || id >= t.count then raise Not_found;
  t.fac.(id)

let dist_offering t ~commodity ~from =
  Nearest_index.dist t.index ~commodity ~site:from

let nearest_offering t ~commodity ~from =
  let id = Nearest_index.id t.index ~commodity ~site:from in
  if id < 0 then None
  else Some (facility t id, Nearest_index.dist t.index ~commodity ~site:from)

let dist_large t ~from = Nearest_index.dist_large t.index ~site:from

let nearest_large t ~from =
  let id = Nearest_index.id_large t.index ~site:from in
  if id < 0 then None
  else Some (facility t id, Nearest_index.dist_large t.index ~site:from)

let record_service t ~request_site service =
  let facility_site id = t.fac.(id).Facility.site in
  let c =
    Service.cost_env ~facility_site ~env:t.env ~request_site service
  in
  t.assignment <- t.assignment +. c;
  push_svc t service

let services t = Array.to_list (Array.sub t.svc 0 t.n_services)

let construction_cost t = t.construction
let assignment_cost t = t.assignment
let total_cost t = t.construction +. t.assignment

(* ---------- persistence ---------- *)

(* Straight from the flat arrays, both in order: the facilities from
   [fac] and the services from [svc] on, then the cost accumulators. *)
let write_from w t ~fac ~svc =
  Snapshot_codec.w_int w (t.count - fac);
  for i = fac to t.count - 1 do
    Facility.write w t.fac.(i)
  done;
  Snapshot_codec.w_int w (t.n_services - svc);
  for i = svc to t.n_services - 1 do
    Service.write w t.svc.(i)
  done;
  Snapshot_codec.w_float w t.construction;
  Snapshot_codec.w_float w t.assignment

let write w t =
  Snapshot_codec.w_int w t.n_commodities;
  write_from w t ~fac:0 ~svc:0

let write_new w t = write_from w t ~fac:t.mark_fac ~svc:t.mark_svc

let mark t =
  t.mark_fac <- t.count;
  t.mark_svc <- t.n_services

(* The mirror of [write_from]. Facilities are re-registered in opening
   order as they are read, without re-summing costs: the nearest-index
   cells are min-updates over metric rows, so replaying the same opening
   sequence rebuilds bit-identical tables, while the cost accumulators
   are restored to their serialized values (a fresh summation could
   round differently). *)
let read_new t r =
  ignore
    (Snapshot_codec.r_list
       (fun r ->
         let f = Facility.read ~n_commodities:t.n_commodities r in
         if f.Facility.id <> t.count then
           failwith "Facility_store.read: non-sequential facility ids";
         push_fac t f;
         Nearest_index.note_opened t.index t.metric ~site:f.Facility.site
           ~offered:f.Facility.offered ~id:f.Facility.id)
       r);
  ignore (Snapshot_codec.r_list (fun r -> push_svc t (Service.read r)) r);
  t.construction <- Snapshot_codec.r_float r;
  t.assignment <- Snapshot_codec.r_float r

let read env r =
  let t = create env ~n_commodities:(Snapshot_codec.r_int r) in
  read_new t r;
  t

(* The payload's trailing count repeats the header's; it stays for the
   bytes, and reading it back checks it against the restored store. *)
let base ~tag t emit =
  Snapshot_codec.base ~tag ~count:t.n_services (fun w ->
      emit w;
      Snapshot_codec.w_int w t.n_services)

let decode_base ~tag ~store read blob =
  Snapshot_codec.decode ~tag
    (fun r ->
      let state = read r in
      let count = Snapshot_codec.r_int r in
      let served = (store state).n_services in
      if count <> served then
        Printf.ksprintf failwith
          "Facility_store.decode_base: %S payload count %d disagrees with its \
           store, which served %d requests"
          tag count served;
      state)
    blob
