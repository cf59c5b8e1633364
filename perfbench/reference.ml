(* Correctness: every socket session is checked against an in-process
   [Session.handle_batch] replay of the same stream — decision lines and
   done record byte for byte (floats are printed %.17g on both sides).
   Checkpointed sessions also have their decisions.jsonl compared: with
   the lines the client received, or, for a session that was SIGKILLed
   and resumed, with the log of an uninterrupted in-process checkpointed
   run of the same stream. *)

open Omflp_core
open Omflp_serve

type ctx = {
  algo : Algo_intf.packed;
  env : Omflp_instance.Problem_env.t;
  instance_md5 : string;
  stream : index:int -> len:int -> Omflp_instance.Request.t array;
}

let algo () =
  match Registry.find Workload.algo_name with
  | Ok a -> a
  | Error e -> failwith (Registry.unknown_algo_message e)

let batches reqs f =
  let n = Array.length reqs in
  let rec go i =
    if i < n then begin
      let k = min Workload.window (n - i) in
      f (Array.sub reqs i k);
      go (i + k)
    end
  in
  go 0

(* Decisions of an uninterrupted, non-checkpointed session. *)
let decisions ctx reqs =
  let s = Session.create ~algo:ctx.algo ~seed:1 ctx.env in
  let ds = Session.handle_batch s reqs in
  Session.close s;
  ds

(* decisions.jsonl of an uninterrupted checkpointed session in [dir]. *)
let checkpointed_log ctx ~dir reqs =
  let (module A : Algo_intf.ALGO) = ctx.algo in
  let cp =
    Checkpoint.create ~dir ~algo:A.name ~seed:(Some 1)
      ~instance_md5:ctx.instance_md5 ~snapshot_every:Workload.snapshot_every
  in
  let s = Session.create ~algo:ctx.algo ~seed:1 ~checkpoint:cp ctx.env in
  batches reqs (fun b -> ignore (Session.handle_batch s b));
  Session.close s;
  In_channel.with_open_bin (Filename.concat dir "decisions.jsonl")
    In_channel.input_all

type verdict = { attempted : int; failed : int; errors : string list }

(* [check ctx sessions ~server_log ~ref_dir]: [server_log s] is the
   server's decisions.jsonl for a checkpointed session ([None] when not
   checkpointed); resumed sessions are the ones with [resume = true]. *)
let check ctx (sessions : Drive.session list) ~server_log ~ref_dir =
  let by_index = Hashtbl.create 256 in
  List.iter
    (fun (s : Drive.session) ->
      Hashtbl.replace by_index s.Drive.index
        (s :: Option.value (Hashtbl.find_opt by_index s.Drive.index) ~default:[]))
    sessions;
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let bad (s : Drive.session) msg =
    failed := !failed + (s.Drive.last - s.Drive.first);
    if List.length !errors < 5 then
      errors := Printf.sprintf "session %s: %s" s.Drive.id msg :: !errors
  in
  let indices =
    Hashtbl.fold (fun k _ acc -> k :: acc) by_index [] |> List.sort compare
  in
  List.iter
    (fun index ->
      let group = Hashtbl.find by_index index in
      let len =
        List.fold_left (fun m (s : Drive.session) -> max m s.Drive.last) 0 group
      in
      let reqs = ctx.stream ~index ~len in
      let ds = decisions ctx reqs in
      let lines = Array.map (fun d -> Wire.decision_to_json d ^ "\n") ds in
      let expected first last =
        String.concat "" (Array.to_list (Array.sub lines first (last - first)))
      in
      let uninterrupted_log (s : Drive.session) =
        checkpointed_log ctx
          ~dir:(Filename.concat ref_dir s.Drive.id)
          (Array.sub reqs 0 s.Drive.last)
      in
      List.iter
        (fun (s : Drive.session) ->
          attempted := !attempted + (s.Drive.last - s.Drive.first);
          match s.Drive.error with
          | Some e -> bad s e
          | None ->
              if Buffer.contents s.Drive.canon <> expected s.Drive.first s.Drive.last
              then bad s "decision lines differ from the in-process replay"
              else if
                s.Drive.half_close
                && s.Drive.done_line
                   <> Wire.done_to_json ~served:s.Drive.last
                        ~total:ds.(s.Drive.last - 1).Wire.total
              then bad s ("done record differs: " ^ s.Drive.done_line)
              else
                match server_log s with
                | None -> ()
                | Some log ->
                    let want =
                      if s.Drive.resume then uninterrupted_log s
                      else Buffer.contents s.Drive.canon
                    in
                    if log <> want then
                      bad s "decisions.jsonl differs from the uninterrupted run")
        group)
    indices;
  { attempted = !attempted; failed = !failed; errors = List.rev !errors }
