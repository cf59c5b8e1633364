open Omflp_prelude
open Omflp_instance

type solution = {
  facilities : (int * Omflp_commodity.Cset.t) list;
  cost : float;
  restarts_used : int;
}

let facility_set_of_run (run : Omflp_core.Run.t) =
  List.sort_uniq compare
    (List.map
       (fun (f : Omflp_core.Facility.t) -> (f.site, f.offered))
       run.facilities)

let one_pass inst requests =
  (* The offline heuristic always works on the plain-OMFLP view of the
     metric/cost pair, whatever the instance's family. *)
  let t =
    Omflp_core.Pd_omflp.create
      (Problem_env.omflp inst.Instance.metric inst.Instance.cost)
  in
  Array.iter (fun r -> ignore (Omflp_core.Pd_omflp.step t r)) requests;
  let run =
    Omflp_core.Run.of_store ~algorithm:"pd-offline"
      (Omflp_core.Pd_omflp.store t)
  in
  let facilities = facility_set_of_run run in
  Prune.drop_pass inst facilities

let solve ?(restarts = 3) ?(seed = 0x0ff1) (inst : Instance.t) =
  if restarts < 1 then invalid_arg "Pd_offline.solve: need at least one restart";
  if Instance.n_requests inst = 0 then
    { facilities = []; cost = 0.0; restarts_used = 0 }
  else begin
    let best = ref None in
    for restart = 0 to restarts - 1 do
      let requests = Array.copy inst.requests in
      if restart > 0 then
        Sampler.shuffle (Splitmix.of_int (seed + restart)) requests;
      let facilities, cost = one_pass inst requests in
      match !best with
      | Some (_, c) when c <= cost -> ()
      | _ -> best := Some (facilities, cost)
    done;
    match !best with
    | Some (facilities, cost) -> { facilities; cost; restarts_used = restarts }
    | None -> assert false
  end
