(* R12: no NSS- or dlopen-backed calls in shipped code.

   On Linux [bin/wlcq.exe] links glibc statically.  A static glibc
   cannot serve the name-service lookups (users, groups, hosts,
   services, protocols) or [dlopen] at run time: those go through
   shared NSS modules of the exact glibc version the binary was linked
   against, and the link prints one note per such function that the
   Unix library or the runtime references.  wlcq calls none of them;
   this rule keeps it that way.

   A finding is, in a file under [lib/] or [bin/]:
   - any use of [Dynlink] (a value, a type, a module alias or an
     open);
   - a use of one of the [Unix] functions below, qualified through
     [Unix], [UnixLabels] or a top-level alias of either ([module U =
     Unix], from the file's summary, as R11 resolves them), or
     unqualified in a file that opens one of them.  The open case is a
     per-file approximation of scoping, as R1's local [compare] is. *)

let nss_functions =
  [ "getpwnam"; "getpwuid"; "getgrnam"; "getgrgid"; "initgroups";
    "getaddrinfo"; "getnameinfo"; "gethostbyname"; "gethostbyaddr";
    "getservbyname"; "getservbyport"; "getprotobyname";
    "getprotobynumber" ]

let is_nss f = List.exists (String.equal f) nss_functions

(* does a module path name Unix itself? *)
let unix_path = function
  | [ m ] | [ "Stdlib"; m ] ->
    String.equal m "Unix" || String.equal m "UnixLabels"
  | _ -> false

(* a longident's parts, with a leading [Stdlib] dropped *)
let parts li =
  match (try Longident.flatten li with _ -> []) with
  | "Stdlib" :: rest -> rest
  | ps -> ps

(* [lib/] or [bin/] as a path component, so the fixture tree under
   test/lint_fixtures/ exercises the rule too *)
let shipped file =
  List.exists
    (fun c -> String.equal c "lib" || String.equal c "bin")
    (String.split_on_char '/' (Filename.dirname file))

let dynlink_message =
  "Dynlink in shipped code: the Linux build links glibc statically, and \
   a static glibc cannot dlopen at run time"

let nss_message f =
  Printf.sprintf
    "Unix.%s in shipped code: the Linux build links glibc statically, \
     and a static glibc cannot serve name-service lookups at run time"
    f

let check ~file ~aliases ~report (str : Parsetree.structure) =
  if shipped file then begin
    let is_unix m =
      unix_path [ m ]
      || List.exists
           (fun (a, target) -> String.equal a m && unix_path target)
           aliases
    in
    let report loc msg =
      report (Diagnostic.of_location ~file ~rule:Diagnostic.R12 loc msg)
    in
    let dynlink loc li =
      match parts li with
      | "Dynlink" :: _ -> report loc dynlink_message
      | _ -> ()
    in
    (* does the file open Unix (or an alias) anywhere? *)
    let opens_unix = ref false in
    let unqualified = ref [] in
    let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
      (match e.pexp_desc with
       | Pexp_ident { txt; loc } -> (
         dynlink loc txt;
         match parts txt with
         | [ f ] when is_nss f -> unqualified := (loc, f) :: !unqualified
         | [ m; f ] when is_unix m && is_nss f -> report loc (nss_message f)
         | _ -> ())
       | Pexp_construct ({ txt; loc }, _) -> dynlink loc txt
       | _ -> ());
      Ast_iterator.default_iterator.expr self e
    in
    let module_expr (self : Ast_iterator.iterator)
        (me : Parsetree.module_expr) =
      (match me.pmod_desc with
       | Pmod_ident { txt; loc } -> dynlink loc txt
       | _ -> ());
      Ast_iterator.default_iterator.module_expr self me
    in
    let open_declaration (self : Ast_iterator.iterator)
        (od : Parsetree.open_declaration) =
      (match od.popen_expr.pmod_desc with
       | Pmod_ident { txt; _ } -> (
         match parts txt with
         | [ m ] when is_unix m -> opens_unix := true
         | _ -> ())
       | _ -> ());
      Ast_iterator.default_iterator.open_declaration self od
    in
    let typ (self : Ast_iterator.iterator) (t : Parsetree.core_type) =
      (match t.ptyp_desc with
       | Ptyp_constr ({ txt; loc }, _) -> dynlink loc txt
       | _ -> ());
      Ast_iterator.default_iterator.typ self t
    in
    let pat (self : Ast_iterator.iterator) (p : Parsetree.pattern) =
      (match p.ppat_desc with
       | Ppat_construct ({ txt; loc }, _) -> dynlink loc txt
       | _ -> ());
      Ast_iterator.default_iterator.pat self p
    in
    let it =
      { Ast_iterator.default_iterator with expr; module_expr;
        open_declaration; typ; pat }
    in
    it.structure it str;
    if !opens_unix then
      List.iter (fun (loc, f) -> report loc (nss_message f))
        (List.rev !unqualified)
  end
