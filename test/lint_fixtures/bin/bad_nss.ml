(* R12 known-bad: name-service and dlopen-backed calls in shipped code.
   Six findings: the qualified, aliased and locally opened Unix
   lookups, and the two uses of Dynlink.  The kernel-served Unix calls
   at the bottom stay clean. *)

module U = Unix

let home user = (Unix.getpwnam user).Unix.pw_dir

let group gid = (U.getgrgid gid).Unix.gr_name

let resolve host = Unix.getaddrinfo host "" []

let lookup name = Unix.(gethostbyname name)

let plugin file = Dynlink.loadfile file

module D = Dynlink

let pid () = Unix.getpid ()

let host () = Unix.gethostname ()

let uid () = Unix.getuid ()
