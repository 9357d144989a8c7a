(* R12 applies to shipped code only: the same lookups outside lib/ and
   bin/ stay clean. *)

let home user = (Unix.getpwnam user).Unix.pw_dir

let plugin file = Dynlink.loadfile file
