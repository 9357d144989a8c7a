(** Lint findings: a rule id plus a [file:line:col] position and a
    human-readable message. *)

type rule =
  | R0  (** lint integrity: parse errors, malformed/unused/retired pragmas *)
  | R1  (** polymorphic compare/hash on structured values *)
  | R2  (** partial/unsafe functions; error-message convention *)
  | R3  (** top-level mutable state visible to [Domain.spawn] code *)
  | R4  (** hygiene: missing [.mli], printing from [lib/] *)
  | R6
      (** hard-coded size threshold (relational comparison against a
          large integer constant) in an engine hot path under
          [lib/hom], [lib/wl], [lib/core] or [lib/kg]: engine-choice
          and parallelism cutoffs belong in [Wlcq_dispatch]'s
          calibration table *)
  | R7
      (** interprocedural budget-poll reachability: a [for]/[while]
          loop or recursive cycle reachable from a [*_budgeted] entry
          point whose body never reaches a [Budget] poll — under a
          deadline this is the unkillable region of the engine *)
  | R8
      (** interprocedural Outcome containment: an exception
          ([raise]/[failwith]/partial function, possibly raised several
          calls deep) that can escape a [*_budgeted] entry point
          instead of being mapped to an [Outcome] *)
  | R9
      (** per-iteration allocation (closures, boxed tuples, options,
          [List.map]-family combinators) inside a [for]/[while] loop of
          an engine hot path; escape hatch: [(* lint: hot-alloc ... *)] *)
  | R10
      (** module-level memo table ([Hashtbl.create] or a [*_tbl]/[Tbl]
          functor application at top level) in [lib/] outside
          [lib/cache]: ad-hoc memos are unbounded and invisible to the
          shared tier's size accounting — route the artifact through
          [Wlcq_cache.Cache.store] instead *)
  | R11
      (** blocking Unix call discipline in the service tier: inside
          [lib/serve], every blocking socket call
          ([Unix.accept]/[read]/[write]/[select]/…) must live in the
          designated I/O module ([io.ml]), and there only inside
          functions that take an explicit [~timeout_s]-style bound —
          an unbounded blocking call anywhere else can stall the
          daemon's event loop behind one slow client *)
  | R12
      (** NSS- or [dlopen]-backed call in shipped code: under [lib/]
          or [bin/], any use of [Dynlink] or of a [Unix] name-service
          function ([getpwnam], [getaddrinfo], [gethostbyname], …).
          The Linux build links glibc statically, and a static glibc
          cannot serve these at run time *)

val rule_id : rule -> string
val rule_of_id : string -> rule option

(** [retired_successor "R5"] is [Some "R7"]: rule ids that once
    existed; pragmas naming them are R0 findings, not silent no-ops. *)
val retired_successor : string -> string option

val rule_summary : rule -> string
val all_rules : rule list

type t = { file : string; line : int; col : int; rule : rule; message : string }

val make : file:string -> line:int -> col:int -> rule:rule -> string -> t

(** [of_location ~file ~rule loc msg] positions the finding at the start
    of [loc]. *)
val of_location : file:string -> rule:rule -> Location.t -> string -> t

(** Order by file, then line, then column. *)
val compare : t -> t -> int

(** [to_string d] is ["file:line:col RULE message"] — the diagnostic
    format the dune [@lint] alias surfaces. *)
val to_string : t -> string

(** [add_json buf ~suppressed d] appends one JSON object
    [{"file":…,"line":…,"col":…,"rule":…,"message":…,"suppressed":…}]
    with the same string escaping as the Obs trace exporter. *)
val add_json : Buffer.t -> suppressed:bool -> t -> unit
