(* The designated blocking-I/O module of the service tier.

   Lint rule R11 confines every blocking [Unix] call in lib/serve
   (accept/read/write/select/recv/send) to this file, and inside it to
   functions that carry an explicit [~timeout_s] parameter — so no
   code path in the daemon can block indefinitely on a socket.

   Every descriptor made here is non-blocking: the listen socket, each
   accepted socket (Linux [accept] does not pass [O_NONBLOCK] on), a
   connected client socket and both ends of the wake pipe.  So each
   wrapper makes its call first and waits with [Unix.select] only
   after [EAGAIN], for at most [~timeout_s]; a ready descriptor costs
   one system call, and a timeout is a normal result, never an
   exception. *)

module Obs = Wlcq_obs.Obs

(* Both waits return at once, without a system call, when there is
   no time to wait: a zero bound means "only if it is ready now", and
   the call just made said it is not. *)
let wait_readable ~timeout_s fd =
  timeout_s > 0.0
  &&
  match Unix.select [ fd ] [] [] timeout_s with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let wait_writable ~timeout_s fd =
  timeout_s > 0.0
  &&
  match Unix.select [] [ fd ] [] timeout_s with
  | _, [], _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* deadlines on the monotonic clock, so a step of the wall clock
   neither stretches nor cuts a bound *)
let deadline_after timeout_s =
  Int64.add (Obs.now_ns ()) (Int64.of_float (timeout_s *. 1e9))

let seconds_left deadline =
  Int64.to_float (Int64.sub deadline (Obs.now_ns ())) /. 1e9

let listen ~path ~backlog =
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
   | _ -> ()
   | exception Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd backlog;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  fd

let accept ~timeout_s fd =
  let rec go waited =
    match Unix.accept ~cloexec:true fd with
    | cfd, _ ->
      Unix.set_nonblock cfd;
      Some cfd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if (not waited) && wait_readable ~timeout_s fd then go true else None
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      None
  in
  go false

(* [Unix.select] cannot watch descriptors >= FD_SETSIZE (1024 on
   Linux); callers sizing a descriptor set (the server's session cap)
   must stay below this or the multiplexer itself raises. *)
let max_select_fds = 1024

(* [select ~timeout_s fds] is the event-loop multiplexer: descriptors
   readable now, [] on timeout or EINTR. *)
let select ~timeout_s fds =
  match Unix.select fds [] [] timeout_s with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

type read_result = Data of int | Eof | Timeout | Closed

let read ~timeout_s fd buf =
  let rec go waited =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Eof
    | n -> Data n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if (not waited) && wait_readable ~timeout_s fd then go true else Timeout
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> Timeout
    | exception Unix.Unix_error (_, _, _) -> Closed
  in
  go false

(* [write_all ~timeout_s fd s pos] writes [s] from [pos] on; [`All] on
   completion, [`Partial n] with the new offset when the per-call
   timeout expired first, [`Closed] on a dead peer (EPIPE et al.). *)
let write_all ~timeout_s fd s pos =
  let n = String.length s in
  let deadline = deadline_after timeout_s in
  let rec go pos =
    if pos >= n then `All
    else
      match Unix.write_substring fd s pos (n - pos) with
      | written -> go (pos + written)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        if wait_writable ~timeout_s:(seconds_left deadline) fd then go pos
        else `Partial pos
      | exception Unix.Unix_error (_, _, _) -> `Closed
  in
  go pos

(* Non-blocking connect so the declared [~timeout_s] really bounds the
   call.  Two asynchronous shapes exist for Unix-domain sockets: a
   connect parked in progress (EINPROGRESS: await writability, then
   check SO_ERROR) and a full accept backlog, which Linux reports as
   an immediate EAGAIN with nothing in flight — retried with a short
   sleep until the deadline.  The socket stays non-blocking. *)
let connect ~timeout_s ~path =
  let deadline = deadline_after timeout_s in
  let err msg = Error (Printf.sprintf "Io.connect: %s: %s" path msg) in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let fail msg =
      Unix.close fd;
      err msg
    in
    Unix.set_nonblock fd;
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
      if not (wait_writable ~timeout_s:(seconds_left deadline) fd) then
        fail "timed out"
      else (
        match Unix.getsockopt_error fd with
        | None -> Ok fd
        | Some e -> fail (Unix.error_message e))
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      Unix.close fd;
      let left = seconds_left deadline in
      if left <= 0.0 then err "timed out (backlog full)"
      else begin
        ignore (Unix.select [] [] [] (Float.min 0.01 left));
        attempt ()
      end
    | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  in
  attempt ()

(* Self-pipe wakeup: workers poke one byte at the event loop so a
   completed job interrupts the loop's select immediately. *)
let wake_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

let notify ~timeout_s fd =
  let rec go waited =
    match Unix.write_substring fd "!" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if (not waited) && wait_writable ~timeout_s fd then go true
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go false

let drain_notifications ~timeout_s fd =
  let buf = Bytes.create 64 in
  let rec go waited =
    match Unix.read fd buf 0 64 with
    | 64 -> go true
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if (not waited) && wait_readable ~timeout_s fd then go true
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go false

let close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
