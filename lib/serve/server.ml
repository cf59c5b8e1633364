(* Concurrent multi-session front end over the single-session serving
   core: an accept loop hands each connection to a reader thread, the
   reader parses the session-open handshake plus the request stream into
   a bounded per-connection queue, and pool worker domains drain one
   connection at a time — so each session's requests are stepped in
   order, by one domain at a time, and its durable decision log is byte
   for byte what stdin-mode [omflp serve] would have written for the
   same stream.

   Scheduling: a connection owns at most one drain task (Conn's
   [scheduled] flag). A drain steps up to [drain_batch] requests, then
   requeues itself — FIFO through the pool queue, so thousands of
   sessions share the worker domains fairly. Backpressure is Conn.push
   blocking the reader on a full queue.

   Durability is unchanged from the single-session layer: each session
   gets its own checkpoint directory under the server's checkpoint root,
   with the same WAL-before-step / decision-after ordering, so
   SIGKILLing the whole server loses nothing a per-session resume cannot
   replay. *)

open Omflp_instance
open Omflp_core
open Omflp_obs

type config = {
  listen : string;
  algo : string;  (* default; a hello may name another registered one *)
  env : Instance.t;  (* metric + cost; its request list is ignored *)
  instance_md5 : string;
  checkpoint_root : string option;
  snapshot_every : int;
  seed : int;
  max_sessions : int;
  queue_depth : int;
  workers : int;
}

type t = {
  cfg : config;
  n_sites : int;
  n_commodities : int;
  pool : Omflp_prelude.Pool.t;
  addr : Listener.addr;
  lfd : Unix.file_descr;
  mutable accept_thr : Thread.t option;
  m : Mutex.t;
  conn_done : Condition.t;
  live : (string, unit) Hashtbl.t;  (* connected session ids *)
  mutable n_conns : int;  (* open connections, incl. pre-handshake *)
  mutable stopping : bool;
}

let accepted_c = Metrics.counter "server.accepted"
let sessions_c = Metrics.counter "server.sessions"
let rejected_c = Metrics.counter "server.rejected"
let request_errors_c = Metrics.counter "server.request_errors"
let latency_h = Metrics.histogram "server.latency_s"

let drain_batch = 32

let fail fmt = Printf.ksprintf failwith fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    fail "Server: checkpoint root %s exists and is not a directory" dir

(* ---------- session opening (runs on the reader thread) ---------- *)

(* Session ids become checkpoint directory names under the root, so the
   charset is locked down: anything that could traverse ("..", "/") or
   confuse a filesystem is refused at the handshake. *)
let valid_session_id id =
  String.length id > 0
  && id <> "." && id <> ".."
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       id

(* Admission control under the registry mutex: the id is claimed before
   the (slow, IO-heavy) session construction, so two connections racing
   on one session id cannot both open its checkpoint directory. *)
let claim t (h : Wire.hello) =
  Mutex.lock t.m;
  let r =
    if not (valid_session_id h.Wire.h_session) then
      Error
        (Printf.sprintf
           "invalid session id %S (want [A-Za-z0-9._-]+, not \".\"/\"..\")"
           h.Wire.h_session)
    else if t.stopping then Error "server is shutting down"
    else if Hashtbl.mem t.live h.Wire.h_session then
      Error (Printf.sprintf "session %S is already connected" h.Wire.h_session)
    else if Hashtbl.length t.live >= t.cfg.max_sessions then
      Error
        (Printf.sprintf "server is at --max-sessions capacity (%d)"
           t.cfg.max_sessions)
    else begin
      Hashtbl.add t.live h.Wire.h_session ();
      Ok ()
    end
  in
  Mutex.unlock t.m;
  r

let open_session t (h : Wire.hello) =
  let algo_name = Option.value h.Wire.h_algo ~default:t.cfg.algo in
  let algo =
    match Registry.find algo_name with
    | Ok a -> a
    | Error e -> fail "%s" (Registry.unknown_algo_message e)
  in
  let seed = Option.value h.Wire.h_seed ~default:t.cfg.seed in
  let snapshot_every =
    Option.value h.Wire.h_snapshot_every ~default:t.cfg.snapshot_every
  in
  let env = Instance.env t.cfg.env in
  let want_checkpoint =
    match h.Wire.h_checkpoint with
    | Some b -> b
    | None -> t.cfg.checkpoint_root <> None
  in
  let root () =
    match t.cfg.checkpoint_root with
    | Some root -> Filename.concat root h.Wire.h_session
    | None ->
        fail
          "handshake requests a checkpoint but the server has no \
           --checkpoint root"
  in
  if h.Wire.h_resume && not want_checkpoint then
    fail "resume requires checkpointing";
  let session, served, reemit =
    if h.Wire.h_resume then begin
      let rz =
        Checkpoint.open_resume ~dir:(root ()) ~n_sites:t.n_sites
          ~n_commodities:t.n_commodities ~instance_md5:t.cfg.instance_md5
      in
      let s, lost = Session.resume ~algo rz env in
      (s, Session.count s, lost)
    end
    else if want_checkpoint then begin
      let (module A : Algo_intf.ALGO) = algo in
      let cp =
        Checkpoint.create ~dir:(root ()) ~algo:A.name ~seed:(Some seed)
          ~instance_md5:t.cfg.instance_md5 ~snapshot_every
      in
      (Session.create ~algo ~seed ~checkpoint:cp env, 0, [])
    end
    else (Session.create ~algo ~seed env, 0, [])
  in
  (session, algo_name, served, reemit)

(* ---------- teardown (either side, exactly once) ---------- *)

let finalize t conn =
  if Conn.claim_finalize conn then begin
    (match conn.Conn.session with
    | None -> ()
    | Some s ->
        (try Session.close s
         with Failure msg ->
           Printf.eprintf "omflp serve: session close: %s\n%!" msg);
        let _, _, total = Session.running_costs s in
        ignore
          (Conn.send_line conn
             (Wire.done_to_json ~served:(Session.count s) ~total)));
    Conn.close conn;
    Mutex.lock t.m;
    Option.iter (Hashtbl.remove t.live) conn.Conn.session_id;
    t.n_conns <- t.n_conns - 1;
    Condition.broadcast t.conn_done;
    Mutex.unlock t.m
  end

(* ---------- drain (runs on pool worker domains) ---------- *)

let rec drain t conn budget =
  if budget <= 0 then
    (* Yield the worker: requeue behind other runnable connections. *)
    schedule t conn
  else
    match Conn.take conn ~max:budget with
    | Conn.Idle -> ()
    | Conn.Finished -> finalize t conn
    | Conn.Batch rs -> (
        match conn.Conn.session with
        | None -> assert false (* requests only flow after the handshake *)
        | Some s -> (
            let t0 = Metrics.now () in
            match Session.handle_batch s rs with
            | ds ->
                let n = Array.length ds in
                let latency_s =
                  (Metrics.now () -. t0) /. float_of_int (max 1 n)
                in
                Array.iter
                  (fun d ->
                    Metrics.observe latency_h latency_s;
                    if not conn.Conn.dead then
                      ignore
                        (Conn.send_fill conn (fun b ->
                             Wire.decision_to_buffer ~latency_s b d)))
                  ds;
                drain t conn (budget - n)
            | exception Failure msg ->
                (* Fatal for this session (checkpoint IO, algorithm
                   invariant): tell the client, stop its reader, and let
                   the Finished path run the usual finalization — the
                   WAL-before-decision write order makes this exactly the
                   crash-window shape a later resume can replay. *)
                Printf.eprintf "omflp serve: session %s: %s\n%!"
                  (Option.value conn.Conn.session_id ~default:"?")
                  msg;
                ignore (Conn.send_line conn (Wire.error_to_json msg));
                Conn.abort conn;
                drain t conn budget))

and schedule t conn =
  Omflp_prelude.Pool.submit t.pool (fun () ->
      try drain t conn drain_batch
      with e ->
        (* Backstop: a drain task must never kill its worker domain. *)
        Printf.eprintf "omflp serve: drain: %s\n%!" (Printexc.to_string e);
        Conn.abort conn;
        finalize t conn)

(* ---------- reader threads ---------- *)

let refuse t conn msg =
  Metrics.incr rejected_c;
  ignore (Conn.send_line conn (Wire.error_to_json msg));
  finalize t conn

let stream_loop t conn =
  let line_no = ref 0 in
  let rec loop () =
    match Conn.input_line_opt conn with
    | None -> if Conn.finish_input conn then schedule t conn
    | Some line ->
        incr line_no;
        (if String.trim line <> "" then
           match
             Wire.parse_request ~n_sites:t.n_sites
               ~n_commodities:t.n_commodities line
           with
           | Error e ->
               Metrics.incr request_errors_c;
               ignore
                 (Conn.send_line conn
                    (Wire.error_to_json
                       (Printf.sprintf "line %d: %s" !line_no e)))
           | Ok r -> if Conn.push conn r then schedule t conn);
        loop ()
  in
  loop ()

let reader t conn =
  match Conn.input_line_opt conn with
  | None -> finalize t conn
  | Some hello_line -> (
      match Wire.parse_hello hello_line with
      | Error e -> refuse t conn (Printf.sprintf "bad handshake: %s" e)
      | Ok hello -> (
          match claim t hello with
          | Error e -> refuse t conn e
          | Ok () -> (
              conn.Conn.session_id <- Some hello.Wire.h_session;
              match open_session t hello with
              | exception Failure msg -> refuse t conn msg
              | session, algo_name, served, reemit ->
                  Metrics.incr sessions_c;
                  conn.Conn.session <- Some session;
                  let ack =
                    Wire.ack_to_json
                      {
                        Wire.a_session = hello.Wire.h_session;
                        a_algo = algo_name;
                        a_served = served;
                        a_reemitted = List.length reemit;
                      }
                  in
                  if Conn.send_line conn ack then begin
                    List.iter
                      (fun d ->
                        ignore (Conn.send_line conn (Wire.decision_to_json d)))
                      reemit;
                    stream_loop t conn
                  end
                  else begin
                    (* Peer vanished between connect and ack: still close
                       the session cleanly (final snapshot). *)
                    ignore (Conn.finish_input conn);
                    drain t conn drain_batch
                  end)))

(* ---------- lifecycle ---------- *)

let rec accept_loop t =
  match Unix.accept ~cloexec:true t.lfd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop t
  | exception Unix.Unix_error _ when t.stopping -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "omflp serve: accept: %s\n%!" (Unix.error_message e)
  | fd, _ ->
      if t.stopping then (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ())
      else begin
        Metrics.incr accepted_c;
        Mutex.lock t.m;
        t.n_conns <- t.n_conns + 1;
        Mutex.unlock t.m;
        let conn = Conn.of_fd ~cap:t.cfg.queue_depth fd in
        ignore (Thread.create (fun () -> reader t conn) ());
        accept_loop t
      end

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.max_sessions < 1 then
    invalid_arg "Server.start: max_sessions must be >= 1";
  if cfg.snapshot_every < 1 then
    invalid_arg "Server.start: snapshot_every must be >= 1";
  if cfg.queue_depth < 1 then
    invalid_arg "Server.start: queue_depth must be >= 1";
  (* A client that vanishes mid-write must surface as a write error on
     our side, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Option.iter mkdir_p cfg.checkpoint_root;
  let addr =
    match Listener.parse cfg.listen with
    | Ok a -> a
    | Error e -> fail "Server: bad --listen address: %s" e
  in
  let lfd = Listener.listen addr in
  let t =
    {
      cfg;
      n_sites = Instance.n_sites cfg.env;
      n_commodities = Instance.n_commodities cfg.env;
      (* [workers + 1] because the pool's creating "caller slot" is the
         accept thread, which never helps drain — submitted tasks run on
         the [workers] spawned domains only. *)
      pool = Omflp_prelude.Pool.create ~jobs:(cfg.workers + 1);
      addr;
      lfd;
      accept_thr = None;
      m = Mutex.create ();
      conn_done = Condition.create ();
      live = Hashtbl.create 64;
      n_conns = 0;
      stopping = false;
    }
  in
  t.accept_thr <- Some (Thread.create accept_loop t);
  t

let listening t = Listener.pp_addr t.addr

let active_sessions t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.live in
  Mutex.unlock t.m;
  n

let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Mutex.unlock t.m;
  (* Wake a blocked [accept]: shutdown works on Linux; the dummy connect
     covers platforms where it does not. *)
  (try Unix.shutdown t.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close (Listener.connect_addr t.addr)
   with Failure _ | Unix.Unix_error _ -> ());
  Option.iter Thread.join t.accept_thr;
  t.accept_thr <- None;
  (* Let live connections finish: clients half-close when done, drains
     finalize, and the registry empties. *)
  Mutex.lock t.m;
  while t.n_conns > 0 do
    Condition.wait t.conn_done t.m
  done;
  Mutex.unlock t.m;
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Listener.cleanup t.addr;
  Omflp_prelude.Pool.shutdown t.pool

let run cfg =
  let t = start cfg in
  Printf.eprintf
    "omflp serve: listening on %s (%d worker domain%s, max %d sessions, \
     queue depth %d)\n\
     %!"
    (listening t) cfg.workers
    (if cfg.workers = 1 then "" else "s")
    cfg.max_sessions cfg.queue_depth;
  (* Runs until the process is killed; durability is the checkpoint
     root's business, not a shutdown handler's. *)
  Option.iter Thread.join t.accept_thr
