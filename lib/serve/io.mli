(** Bounded blocking I/O for the service tier.

    The one module in [lib/serve] allowed to perform blocking [Unix]
    calls (lint rule R11); every operation takes a [~timeout_s] bound
    and reports expiry as a normal result, so no daemon code path can
    block indefinitely on a socket.

    Every descriptor these functions take must be non-blocking, as
    every descriptor they make is ({!listen}, {!accept}, {!connect},
    {!wake_pipe}).  An operation makes its system call first and waits
    with [select] only after [EAGAIN], for at most [~timeout_s]; with
    [~timeout_s:0.0] an operation that would block returns at once. *)

(** [listen ~path ~backlog] binds and listens on a non-blocking
    Unix-domain socket, unlinking a stale socket file left by a
    previous daemon.
    @raise Unix.Unix_error when the bind/listen fails. *)
val listen : path:string -> backlog:int -> Unix.file_descr

(** [accept ~timeout_s fd] waits up to [timeout_s] for a connection
    and makes its socket non-blocking; [None] on timeout or a transient
    accept error. *)
val accept : timeout_s:float -> Unix.file_descr -> Unix.file_descr option

(** [Unix.select] cannot watch descriptors at or above [FD_SETSIZE]
    (1024 on Linux): anything sizing a descriptor set — notably the
    server's session cap — must leave headroom below this bound. *)
val max_select_fds : int

(** [select ~timeout_s fds] is the event-loop multiplexer: the subset
    of [fds] readable now; [[]] on timeout or [EINTR]. *)
val select :
  timeout_s:float -> Unix.file_descr list -> Unix.file_descr list

type read_result =
  | Data of int  (** bytes read *)
  | Eof  (** orderly close by the peer *)
  | Timeout
  | Closed  (** read error: treat as a dead peer *)

val read : timeout_s:float -> Unix.file_descr -> bytes -> read_result

(** [write_all ~timeout_s fd s pos] writes [s] from offset [pos]:
    [`All] on completion, [`Partial pos'] when the bound expired with
    [pos'] bytes sent in total, [`Closed] on a dead peer. *)
val write_all :
  timeout_s:float -> Unix.file_descr -> string -> int ->
  [ `All | `Partial of int | `Closed ]

(** [connect ~timeout_s ~path] opens a non-blocking client connection,
    bounded by [timeout_s] — a daemon whose accept backlog is full
    yields [Error "... timed out ..."] at the deadline instead of
    blocking indefinitely. *)
val connect :
  timeout_s:float -> path:string -> (Unix.file_descr, string) result

(** [wake_pipe ()] is a self-pipe [(read end, write end)], both ends
    non-blocking and close-on-exec. *)
val wake_pipe : unit -> Unix.file_descr * Unix.file_descr

(** [notify ~timeout_s fd] writes one wakeup byte to the self-pipe
    (best effort: a full pipe already guarantees a pending wakeup). *)
val notify : timeout_s:float -> Unix.file_descr -> unit

(** [drain_notifications ~timeout_s fd] consumes pending wakeup
    bytes. *)
val drain_notifications : timeout_s:float -> Unix.file_descr -> unit

(** [close fd] closes, ignoring errors (double close included). *)
val close : Unix.file_descr -> unit
