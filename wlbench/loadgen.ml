(* The daemon side: spawn [wlcq serve] as its own process, and drive it
   with a single-threaded closed loop over at most two Unix-socket
   connections, each with one outstanding request.  The generator
   never shares a heap with the daemon, so its allocations cannot stall
   the workers it measures. *)

module Wire = Wlcq_serve.Wire
module Obs = Wlcq_obs.Obs

type req = {
  id : string;
  index : int;  (** position in its stream *)
  kind : Problems.kind;
  op : Wire.op;
  expected : string option;  (** [None]: checked after the phase *)
}

(* Client-side timestamps of one exchange (monotonic ns). *)
type stamps = {
  t_start : int64;  (** before encoding *)
  t_encoded : int64;
  t_written : int64;
  t_first_read : int64;  (** first reply bytes read *)
  t_framed : int64;  (** complete reply frame deframed *)
  t_decoded : int64;
}

type reply = {
  req : req;
  stamps : stamps;
  response : (Wire.response, string) result;
}

let now = Obs.now_ns

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; metrics_out : string option }

let open_cloexec path flags = Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o644

let spawn ~exe ~socket ~workers ~metrics_out ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers ]
    @ match metrics_out with Some f -> [ "--metrics-out"; f ] | None -> []
  in
  let null = open_cloexec "/dev/null" [ Unix.O_RDONLY ] in
  let logfd = open_cloexec log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close logfd)
      (fun () -> Unix.create_process exe (Array.of_list args) null logfd logfd)
  in
  { pid; socket; metrics_out }

let try_connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Poll until the daemon accepts a connection; [None] when it died or
   did not come up within [timeout_s]. *)
let await_ready ?(timeout_s = 20.0) d =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match try_connect d.socket with
    | Some fd -> Some fd
    | None ->
      if exited d.pid || Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.001;
        go ()
      end
  in
  go ()

(* SIGTERM drain; returns the exit code (negative: killed by that
   signal), escalating to SIGKILL when the daemon overstays
   [timeout_s]. *)
let stop ?(timeout_s = 30.0) d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        go ()
      end
      else begin
        Unix.sleepf 0.002;
        go ()
      end
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> -abs s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> -1000
  in
  go ()

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The closed loop                                                      *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  defr : Wire.deframer;
  mutable alive : bool;
  mutable cur : (req * int64 * int64 * int64) option;  (* request, start, encoded, written *)
  mutable first_read : int64;
}

let conn fd = { fd; defr = Wire.deframer (); alive = true; cur = None; first_read = 0L }

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* A reply that never arrives within this many seconds is a failed
   operation (the daemon's own default deadline is 5 s). *)
let reply_timeout_s = 60.0

let buf = Bytes.create 65536

(* [drive conns ~next ~on_reply] keeps one request outstanding on each
   live connection, taking requests from [next] until it returns
   [None], then waits for the outstanding replies.  A dropped
   connection or a timeout fails its outstanding request through
   [on_reply] with an [Error] response. *)
let drive (conns : conn array) ~(next : unit -> req option) ~(on_reply : reply -> unit) =
  let exhausted = ref false in
  let fail c msg =
    (match c.cur with
     | Some (req, t0, te, tw) ->
       let t = now () in
       on_reply
         { req; response = Error msg;
           stamps = { t_start = t0; t_encoded = te; t_written = tw; t_first_read = t;
                      t_framed = t; t_decoded = t } }
     | None -> ());
    c.cur <- None;
    close_conn c
  in
  let issue c =
    match next () with
    | None -> exhausted := true
    | Some req -> (
      let t0 = now () in
      let frame = Wire.encode_request { Wire.id = req.id; deadline_ms = None; max_live_mb = None; op = req.op } in
      let te = now () in
      c.cur <- Some (req, t0, te, te);
      c.first_read <- 0L;
      match write_all c.fd frame 0 with
      | () -> c.cur <- Some (req, t0, te, now ())
      | exception Unix.Unix_error (e, _, _) -> fail c ("write: " ^ Unix.error_message e))
  in
  let receive c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> fail c ("read: " ^ Unix.error_message e)
    | 0 -> fail c "connection closed by the daemon"
    | n -> (
      if c.first_read = 0L then c.first_read <- now ();
      Wire.feed c.defr buf n;
      match Wire.next_frame c.defr with
      | `Await -> ()
      | `Oversize n -> fail c (Printf.sprintf "oversize reply frame (%d bytes)" n)
      | `Frame payload -> (
        let tf = now () in
        let response = Wire.decode_response payload in
        let td = now () in
        match c.cur with
        | Some (req, t0, te, tw) ->
          c.cur <- None;
          on_reply
            { req; response;
              stamps = { t_start = t0; t_encoded = te; t_written = tw;
                         t_first_read = c.first_read; t_framed = tf; t_decoded = td } }
        | None -> fail c "unsolicited reply"))
  in
  let timeout_ns = Int64.of_float (reply_timeout_s *. 1e9) in
  let rec loop () =
    if not !exhausted then
      Array.iter (fun c -> if c.alive && c.cur = None && not !exhausted then issue c) conns;
    let busy = List.filter (fun c -> c.alive && c.cur <> None) (Array.to_list conns) in
    if busy <> [] then begin
      let ready =
        match Unix.select (List.map (fun c -> c.fd) busy) [] [] 1.0 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun c ->
           if List.mem c.fd ready then receive c
           else
             match c.cur with
             | Some (_, t0, _, _) when Int64.sub (now ()) t0 > timeout_ns ->
               fail c "timed out waiting for a reply"
             | _ -> ())
        busy;
      loop ()
    end
  in
  loop ()
