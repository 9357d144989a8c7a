(** R12: no NSS- or [dlopen]-backed calls in shipped code.

    The Linux build links [bin/wlcq.exe] against a static glibc, which
    cannot serve name-service lookups or [dlopen] at run time.  In a
    file under [lib/] or [bin/], any use of [Dynlink], and any use of
    a [Unix] function that glibc answers through NSS ([getpwnam],
    [getaddrinfo], [gethostbyname], ...), is a finding.  [Unix] is
    matched through [UnixLabels] and top-level module aliases too, and
    an unqualified name counts in a file that opens [Unix]. *)

(** [check ~file ~aliases ~report str] reports every R12 finding in
    one parsed implementation, resolving module names through the
    file's summary [aliases]; files outside [lib/] and [bin/] are
    skipped. *)
val check :
  file:string ->
  aliases:(string * string list) list ->
  report:(Diagnostic.t -> unit) ->
  Parsetree.structure ->
  unit
