(* The daemon: accept loop, session table, worker pool, drain.

   One event-loop thread owns every socket and every session record;
   [workers] extra domains execute requests.  The two sides meet at
   exactly two points — the scheduler (loop submits, workers pop) and
   the completion queue (workers push, loop drains after a self-pipe
   wakeup) — so no session state is ever shared.

   Robustness invariants (exercised by the seeded fault storm):
   - the loop and the workers never let an exception escape: a request
     that raises is answered with a structured [Error] and a
     flight-recorder post-mortem, and the daemon lives on;
   - every blocking operation goes through [Io] with a timeout (lint
     rule R11), so a stalled peer costs a bounded slice of one
     iteration, never the daemon;
   - admission control sheds before queues grow unboundedly, and a
     reaped client's queued jobs are cancelled through its session
     token;
   - SIGTERM drain: stop accepting, answer queued-but-unstarted work,
     finish or [Exhausted]-cancel in-flight work, flush sinks, return
     so the caller can [exit 0]. *)

module Obs = Wlcq_obs.Obs
module Snapshot = Wlcq_obs.Snapshot
module Budget = Wlcq_robust.Budget
module Fault = Wlcq_robust.Fault

type config = {
  socket_path : string;
  workers : int;
  max_sessions : int;
  max_queue : int;
  max_queue_per_client : int;
  max_deadline_ms : float option;
  default_deadline_ms : float option;
  max_live_mb : int option;
  idle_timeout_s : float;
  write_timeout_s : float;
  drain_timeout_s : float;
  flush_interval_s : float;
  metrics_out : string option;
  journal_path : string option;
  journal_rotate_bytes : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    max_sessions = 128;
    max_queue = 256;
    max_queue_per_client = 32;
    max_deadline_ms = Some 30_000.0;
    default_deadline_ms = Some 5_000.0;
    max_live_mb = None;
    idle_timeout_s = 60.0;
    write_timeout_s = 5.0;
    drain_timeout_s = 5.0;
    flush_interval_s = 10.0;
    metrics_out = None;
    journal_path = None;
    journal_rotate_bytes = 1 lsl 20;
  }

(* metrics *)
let m_conns = Obs.counter "serve.connections"
let m_requests = Obs.counter "serve.requests"
let m_shed = Obs.counter "serve.shed"
let m_draining = Obs.counter "serve.draining_rejects"
let m_malformed = Obs.counter "serve.malformed"
let m_worker_contained = Obs.counter "serve.worker.contained"
let m_orphaned = Obs.counter "serve.orphaned"
let m_reaped_idle = Obs.counter "serve.reaped.idle"
let m_reaped_stall = Obs.counter "serve.reaped.stall"
let m_flushes = Obs.counter "serve.flushes"
let d_latency = Obs.distribution "serve.request_ns"

type completion = { c_sid : int; c_resp : Wire.response; c_service_ns : int64 }

type t = {
  cfg : config;
  stop_flag : bool Atomic.t;
  flush_flag : bool Atomic.t;
  listening : bool Atomic.t;
  sched : Scheduler.t;
  comp_lock : Mutex.t;
  (* lint: domain-local guarded by [comp_lock] *)
  mutable completions : completion list;  (* reversed arrival order *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

(* Io.select tops out at FD_SETSIZE descriptors; beyond it the
   multiplexer raises and the loop dies.  Budget for the listen fd,
   the wake pipe and stdio before sizing the session table. *)
let session_cap = Io.max_select_fds - 24

let create cfg =
  if cfg.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  let cfg =
    if cfg.max_sessions <= session_cap then cfg
    else begin
      Obs.journal ~severity:Obs.Warn
        ~attrs:
          [ ("requested", string_of_int cfg.max_sessions);
            ("clamped", string_of_int session_cap) ]
        "serve.max_sessions.clamped";
      { cfg with max_sessions = session_cap }
    end
  in
  let wake_r, wake_w = Io.wake_pipe () in
  {
    cfg;
    stop_flag = Atomic.make false;
    flush_flag = Atomic.make false;
    listening = Atomic.make false;
    sched =
      Scheduler.create ~max_total:cfg.max_queue
        ~max_per_client:cfg.max_queue_per_client ~workers:cfg.workers;
    comp_lock = Mutex.create ();
    completions = [];
    wake_r;
    wake_w;
  }

let shutdown t = Atomic.set t.stop_flag true
let request_flush t = Atomic.set t.flush_flag true
let listening t = Atomic.get t.listening

(* ------------------------------------------------------------------ *)
(* Sink flushing (satellite: daemons never reach at_exit)              *)
(* ------------------------------------------------------------------ *)

(* The OpenMetrics snapshot is written to a temp file and renamed so a
   kill -9 mid-flush still leaves the previous parseable snapshot.
   Total: a sink that turns unwritable mid-life (directory removed,
   permissions, full disk) is a journaled warning, not an exception
   loose in the event loop at the next periodic flush. *)
let write_atomic file content =
  let tmp = file ^ ".tmp" in
  let warn msg =
    Obs.journal ~severity:Obs.Warn
      ~attrs:[ ("file", file); ("error", msg) ]
      "serve.flush.sink_failed"
  in
  match open_out tmp with
  | exception Sys_error msg -> warn msg
  | oc -> (
    try
      output_string oc content;
      close_out oc;
      Sys.rename tmp file
    with Sys_error msg ->
      close_out_noerr oc;
      warn msg)

let rotate_journal t =
  match t.cfg.journal_path with
  | None -> ()
  | Some path -> (
    match Unix.stat path with
    | { Unix.st_size; _ } when st_size > t.cfg.journal_rotate_bytes -> (
      try Sys.rename path (path ^ ".1") with Sys_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error (_, _, _) -> ())

let flush_sinks t ~trigger =
  Obs.incr m_flushes;
  (match t.cfg.metrics_out with
   | None -> ()
   | Some file -> write_atomic file (Snapshot.render (Snapshot.capture ())));
  rotate_journal t;
  Obs.journal_dump ~trigger ()

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let budget_for cfg (job : Scheduler.job) =
  let clamp cap v =
    match (cap, v) with
    | None, v -> v
    | Some c, None -> Some c
    | Some c, Some v -> Some (Float.min c v)
  in
  let clampi cap v =
    match (cap, v) with
    | None, v -> v
    | Some c, None -> Some c
    | Some c, Some v -> Some (min c v)
  in
  let deadline_ms =
    clamp cfg.max_deadline_ms
      (match job.Scheduler.j_req.Wire.deadline_ms with
       | None -> cfg.default_deadline_ms
       | Some _ as d -> d)
  in
  let max_live_mb = clampi cfg.max_live_mb job.Scheduler.j_req.Wire.max_live_mb in
  Budget.create ?deadline_ms ?max_live_mb ~cancel:job.Scheduler.j_cancel ()

let push_completion t c =
  Mutex.lock t.comp_lock;
  t.completions <- c :: t.completions;
  Mutex.unlock t.comp_lock;
  Io.notify ~timeout_s:0.0 t.wake_w

let take_completions t =
  Mutex.lock t.comp_lock;
  let cs = t.completions in
  t.completions <- [];
  Mutex.unlock t.comp_lock;
  List.rev cs

(* Full containment: whatever a request does — raise, exhaust, get
   cancelled, hit a Worker_raise injection — the worker answers with a
   structured response and survives to pop the next job. *)
let run_job t (job : Scheduler.job) =
  let id = job.Scheduler.j_req.Wire.id in
  let started = Obs.now_ns () in
  let resp =
    match
      if Fault.should_fail Fault.Worker_raise then
        failwith "Server.worker: injected Worker_raise fault";
      let budget = budget_for t.cfg job in
      Exec.execute ~budget job.Scheduler.j_req
    with
    | resp -> resp
    | exception Budget.Exhausted r ->
      {
        Wire.r_id = id;
        r_status = Wire.Exhausted;
        r_value = "";
        r_detail = Budget.reason_to_string r;
        r_retry_after_ms = None;
      }
    | exception (Invalid_argument msg | Failure msg) ->
      Obs.incr m_worker_contained;
      Obs.journal ~severity:Obs.Warn
        ~attrs:[ ("id", id); ("error", msg) ]
        "serve.worker.contained";
      {
        Wire.r_id = id;
        r_status = Wire.Error_;
        r_value = "";
        r_detail = msg;
        r_retry_after_ms = None;
      }
    | exception exn ->
      (* unexpected: contained, but this one gets a post-mortem *)
      Obs.incr m_worker_contained;
      Obs.journal ~severity:Obs.Error
        ~attrs:[ ("id", id); ("exn", Printexc.to_string exn) ]
        "serve.worker.crash";
      Obs.journal_dump ~trigger:"serve.worker.crash" ();
      {
        Wire.r_id = id;
        r_status = Wire.Error_;
        r_value = "";
        r_detail = "internal error (contained)";
        r_retry_after_ms = None;
      }
  in
  let service_ns = Int64.sub (Obs.now_ns ()) started in
  Obs.observe d_latency (Int64.to_int service_ns);
  Scheduler.note_service_ns t.sched service_ns;
  push_completion t
    { c_sid = job.Scheduler.j_sid; c_resp = resp; c_service_ns = service_ns }

let worker t () =
  let rec loop () =
    match Scheduler.next t.sched with
    | None -> ()
    | Some job ->
      run_job t job;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

let resp_draining id =
  {
    Wire.r_id = id;
    r_status = Wire.Draining;
    r_value = "";
    r_detail = "daemon is draining";
    r_retry_after_ms = None;
  }

let resp_overloaded id retry_ms =
  {
    Wire.r_id = id;
    r_status = Wire.Overloaded;
    r_value = "";
    r_detail = "queue full";
    r_retry_after_ms = Some retry_ms;
  }

let resp_error id msg =
  {
    Wire.r_id = id;
    r_status = Wire.Error_;
    r_value = "";
    r_detail = msg;
    r_retry_after_ms = None;
  }

type loop_state = {
  srv : t;
  sessions : (int, Session.t) Hashtbl.t;
  by_fd : (Unix.file_descr, int) Hashtbl.t;
  (* lint: domain-local owned by the event-loop thread *)
  mutable draining : bool;
  (* lint: domain-local owned by the event-loop thread *)
  mutable last_flush_ns : int64;
  (* lint: domain-local owned by the event-loop thread *)
  mutable drain_started_ns : int64;
}

let add_session st s =
  Hashtbl.replace st.sessions s.Session.sid s;
  Hashtbl.replace st.by_fd s.Session.fd s.Session.sid

let reap st (s : Session.t) ~why =
  Budget.cancel s.Session.cancel;
  let dropped = Scheduler.drop_client st.srv.sched s.Session.sid in
  Obs.journal ~severity:Obs.Info
    ~attrs:
      [ ("sid", string_of_int s.Session.sid); ("why", why);
        ("dropped", string_of_int (List.length dropped)) ]
    "serve.session.reaped";
  Hashtbl.remove st.sessions s.Session.sid;
  Hashtbl.remove st.by_fd s.Session.fd;
  Io.close s.Session.fd

let send (s : Session.t) resp =
  if not s.Session.closing then
    let bytes =
      (* Wire.encode_response is total, but a raise here would kill
         the event loop: belt and braces, degrade to a stub error *)
      match Wire.encode_response resp with
      | b -> b
      | exception _ ->
        Wire.encode_response (resp_error resp.Wire.r_id "encode failure")
    in
    Session.enqueue_output s bytes

(* a decoded frame: admission control, then the scheduler *)
let handle_request st (s : Session.t) (req : Wire.request) =
  if st.draining then begin
    Obs.incr m_draining;
    send s (resp_draining req.Wire.id)
  end
  else begin
    let job =
      {
        Scheduler.j_sid = s.Session.sid;
        j_req = req;
        j_cancel = s.Session.cancel;
        j_enq_ns = Obs.now_ns ();
      }
    in
    match Scheduler.submit st.srv.sched job with
    | `Accepted ->
      Obs.incr m_requests;
      s.Session.in_flight <- s.Session.in_flight + 1
    | `Rejected retry_ms ->
      Obs.incr m_shed;
      send s (resp_overloaded req.Wire.id retry_ms)
    | `Stopped ->
      Obs.incr m_draining;
      send s (resp_draining req.Wire.id)
  end

let handle_payload st s payload =
  match Wire.decode_request payload with
  | Ok req -> handle_request st s req
  | Error msg ->
    (* malformed frame: structured error, connection stays open *)
    Obs.incr m_malformed;
    send s (resp_error "" msg)

let pump_frames st (s : Session.t) =
  let rec go () =
    if not s.Session.closing then
      match Wire.next_frame s.Session.deframer with
      | `Await -> ()
      | `Frame payload ->
        handle_payload st s payload;
        go ()
      | `Oversize n ->
        (* the stream cannot be resynced past a lying header: answer,
           flush what we can, close *)
        Obs.incr m_malformed;
        send s
          (resp_error ""
             (Printf.sprintf "frame of %d bytes exceeds the %d cap" n
                Wire.max_payload));
        s.Session.closing <- true
  in
  go ()

let read_session st (s : Session.t) ~now_ns ~buf =
  if Fault.should_fail Fault.Read_stall then begin
    Obs.incr m_reaped_stall;
    reap st s ~why:"read_stall (injected)"
  end
  else
    match Io.read ~timeout_s:0.0 s.Session.fd buf with
    | Io.Data n ->
      Session.touch s ~now_ns;
      Wire.feed s.Session.deframer buf n;
      pump_frames st s
    | Io.Timeout -> ()
    | Io.Eof | Io.Closed ->
      reap st s ~why:(if s.Session.in_flight > 0 then "disconnect mid-flight"
                      else "disconnect")

let flush_session st (s : Session.t) ~now_ns =
  if Session.pending_output s > 0 then begin
    if Fault.should_fail Fault.Write_stall then begin
      Obs.incr m_reaped_stall;
      reap st s ~why:"write_stall (injected)"
    end
    else
      match
        Io.write_all ~timeout_s:0.005 s.Session.fd s.Session.out
          s.Session.out_pos
      with
      | `All ->
        Session.wrote s (String.length s.Session.out);
        Session.touch s ~now_ns;
        if s.Session.closing then reap st s ~why:"closed after flush"
      | `Partial pos ->
        let progressed = pos > s.Session.out_pos in
        Session.wrote s pos;
        if progressed then Session.touch s ~now_ns
        else if
          Int64.to_float (Session.idle_ns s ~now_ns)
          > st.srv.cfg.write_timeout_s *. 1e9
        then begin
          Obs.incr m_reaped_stall;
          reap st s ~why:"write_stall"
        end
      | `Closed -> reap st s ~why:"peer closed during write"
  end
  else if s.Session.closing then reap st s ~why:"closed"

let accept_clients st ~now_ns listen_fd =
  let rec go () =
    match Io.accept ~timeout_s:0.0 listen_fd with
    | None -> ()
    | Some fd ->
      (if Fault.should_fail Fault.Accept_fail then
         (* injected accept failure: the connection is dropped on the
            floor, exactly like a transient kernel-level failure *)
         Io.close fd
       else if Hashtbl.length st.sessions >= st.srv.cfg.max_sessions then begin
         Obs.incr m_shed;
         let s = Session.create ~now_ns fd in
         send s (resp_overloaded "" 1000);
         s.Session.closing <- true;
         add_session st s
       end
       else begin
         Obs.incr m_conns;
         add_session st (Session.create ~now_ns fd)
       end);
      go ()
  in
  go ()

let drain_completions st ~now_ns =
  List.iter
    (fun c ->
       match Hashtbl.find_opt st.sessions c.c_sid with
       | Some s ->
         s.Session.in_flight <- max 0 (s.Session.in_flight - 1);
         Session.touch s ~now_ns;
         send s c.c_resp
       | None ->
         (* the client vanished mid-flight: the work is already
            journaled as reaped; record the orphaned response *)
         Obs.incr m_orphaned;
         Obs.journal ~severity:Obs.Info
           ~attrs:[ ("sid", string_of_int c.c_sid) ]
           "serve.response.orphaned")
    (take_completions st.srv)

let reap_idle st ~now_ns =
  let victims =
    Hashtbl.fold
      (fun _ s acc ->
         if
           s.Session.in_flight = 0
           && Session.pending_output s = 0
           && Int64.to_float (Session.idle_ns s ~now_ns)
              > st.srv.cfg.idle_timeout_s *. 1e9
         then s :: acc
         else acc)
      st.sessions []
  in
  List.iter
    (fun s ->
       Obs.incr m_reaped_idle;
       reap st s ~why:"idle")
    victims

let quiesced st =
  Scheduler.depth st.srv.sched = 0
  && Hashtbl.fold
       (fun _ s acc ->
          acc && s.Session.in_flight = 0 && Session.pending_output s = 0)
       st.sessions true

let run ?(on_listening = fun () -> ()) t =
  (* a client that vanishes between select and write must surface as
     EPIPE on the write (reap + journal), not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd =
    Io.listen ~path:t.cfg.socket_path ~backlog:(max 8 t.cfg.max_sessions)
  in
  Atomic.set t.listening true;
  on_listening ();
  let workers =
    List.init t.cfg.workers (fun _ -> Domain.spawn (fun () -> worker t ()))
  in
  let st =
    {
      srv = t;
      sessions = Hashtbl.create 64;
      by_fd = Hashtbl.create 64;
      draining = false;
      last_flush_ns = Obs.now_ns ();
      drain_started_ns = 0L;
    }
  in
  let buf = Bytes.create 65536 in
  let listen_open = ref true in
  let finished = ref false in
  while not !finished do
    let now_ns = Obs.now_ns () in
    (* SIGTERM/SIGINT noticed at most one tick late *)
    if Atomic.get t.stop_flag && not st.draining then begin
      st.draining <- true;
      st.drain_started_ns <- now_ns;
      if !listen_open then begin
        Io.close listen_fd;
        listen_open := false
      end;
      Scheduler.stop t.sched;
      Obs.journal ~severity:Obs.Info "serve.drain.start"
    end;
    (* periodic / SIGHUP-triggered sink flush *)
    let interval_due =
      t.cfg.flush_interval_s > 0.0
      && Int64.to_float (Int64.sub now_ns st.last_flush_ns)
         > t.cfg.flush_interval_s *. 1e9
    in
    if Atomic.exchange t.flush_flag false || interval_due then begin
      st.last_flush_ns <- now_ns;
      flush_sinks t ~trigger:(if interval_due then "interval" else "sighup")
    end;
    let fds =
      (if !listen_open then [ listen_fd ] else [])
      @ (t.wake_r
         :: Hashtbl.fold (fun fd _ acc -> fd :: acc) st.by_fd [])
    in
    let ready = Io.select ~timeout_s:0.05 fds in
    let now_ns = Obs.now_ns () in
    List.iter
      (fun fd ->
         if !listen_open && fd == listen_fd then
           accept_clients st ~now_ns listen_fd
         else if fd == t.wake_r then
           Io.drain_notifications ~timeout_s:0.0 t.wake_r
         else
           match Hashtbl.find_opt st.by_fd fd with
           | Some sid -> (
             match Hashtbl.find_opt st.sessions sid with
             | Some s -> read_session st s ~now_ns ~buf
             | None -> ())
           | None -> ())
      ready;
    drain_completions st ~now_ns;
    (* flushing may reap, so collect the sessions with work first *)
    List.iter
      (fun s -> flush_session st s ~now_ns)
      (Hashtbl.fold
         (fun _ s acc ->
            if Session.pending_output s > 0 || s.Session.closing then s :: acc
            else acc)
         st.sessions []);
    if not st.draining then reap_idle st ~now_ns
    else begin
      let waited_s =
        Int64.to_float (Int64.sub now_ns st.drain_started_ns) /. 1e9
      in
      if waited_s > t.cfg.drain_timeout_s then
        (* grace expired: cancel every session token so in-flight work
           unwinds as Exhausted/Cancelled *)
        Hashtbl.iter
          (fun _ s -> Budget.cancel s.Session.cancel)
          st.sessions;
      if quiesced st || waited_s > 2.0 *. t.cfg.drain_timeout_s then
        finished := true
    end
  done;
  (* drained: workers exit once the scheduler runs dry *)
  List.iter Domain.join workers;
  drain_completions st ~now_ns:(Obs.now_ns ());
  Hashtbl.iter
    (fun _ s ->
       if Session.pending_output s > 0 then
         ignore
           (Io.write_all ~timeout_s:0.2 s.Session.fd s.Session.out
              s.Session.out_pos);
       Io.close s.Session.fd)
    st.sessions;
  if !listen_open then Io.close listen_fd;
  Io.close t.wake_r;
  Io.close t.wake_w;
  (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
  flush_sinks t ~trigger:"drain";
  Obs.journal ~severity:Obs.Info "serve.drain.done";
  Atomic.set t.listening false
