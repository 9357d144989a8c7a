(* The list-based graph-spec parser, kept as the reference that
   test_graph's differential compares [Wlcq_graph.Spec.parse] against.
   It tokenises with [String.split_on_char], collects the edges in a
   list and builds afterwards; the shipped parser scans the string in
   place and fills the graph's rows directly, and also bounds a spec's
   size, which this reference does not. *)

open Wlcq_graph

type t =
  | Path of int
  | Cycle of int
  | Clique of int
  | Star of int
  | Bipartite of int * int
  | Grid of int * int
  | Hypercube of int
  | Wheel of int
  | Matching of int
  | Petersen
  | Two_triangles
  | Gnp of { n : int; p : float; seed : int }
  | Graph6 of string
  | Edges of { n : int; edges : (int * int) list }

let int_of s = int_of_string_opt (String.trim s)

let parse_named name args =
  let ints () = List.filter_map int_of (String.split_on_char ',' args) in
  match (name, ints ()) with
  | "path", [ n ] -> Ok (Path n)
  | "cycle", [ n ] when n >= 3 -> Ok (Cycle n)
  | "clique", [ n ] -> Ok (Clique n)
  | "star", [ n ] -> Ok (Star n)
  | "bipartite", [ a; b ] -> Ok (Bipartite (a, b))
  | "grid", [ a; b ] -> Ok (Grid (a, b))
  | "hypercube", [ d ] -> Ok (Hypercube d)
  | "wheel", [ n ] when n >= 3 -> Ok (Wheel n)
  | "matching", [ k ] -> Ok (Matching k)
  | "gnp", _ ->
    (match String.split_on_char ',' args with
     | [ n; p; seed ] ->
       (match (int_of n, float_of_string_opt (String.trim p), int_of seed)
        with
        | Some n, Some p, Some seed -> Ok (Gnp { n; p; seed })
        | _ -> Error "gnp expects gnp:N,P,SEED")
     | _ -> Error "gnp expects gnp:N,P,SEED")
  | _ -> Error (Printf.sprintf "unknown graph family %S or bad arguments" name)

let parse_edge_list s =
  match String.index_opt s ';' with
  | None -> Error "edge list form is \"N; u-v u-v ...\""
  | Some i ->
    let n = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of n with
     | None -> Error "edge list must start with the vertex count"
     | Some n ->
       let tokens =
         List.filter
           (fun t -> not (String.equal t ""))
           (String.split_on_char ' ' (String.trim rest))
       in
       let parse_edge t =
         match String.split_on_char '-' t with
         | [ u; v ] ->
           (match (int_of u, int_of v) with
            | Some u, Some v -> Ok (u, v)
            | _ -> Error (Printf.sprintf "bad edge %S" t))
         | _ -> Error (Printf.sprintf "bad edge %S" t)
       in
       let rec collect acc = function
         | [] -> Ok (List.rev acc)
         | t :: rest ->
           (match parse_edge t with
            | Ok e -> collect (e :: acc) rest
            | Error e -> Error e)
       in
       (match collect [] tokens with
        | Error e -> Error e
        | Ok edges -> Ok (Edges { n; edges })))

let parse_spec s =
  let s = String.trim s in
  if String.equal s "" then Error "empty graph spec"
  else if String.contains s ';' then parse_edge_list s
  else
    match String.index_opt s ':' with
    | None ->
      (match s with
       | "petersen" -> Ok Petersen
       | "twotriangles" -> Ok Two_triangles
       | _ -> Error (Printf.sprintf "unknown graph %S (%s)" s Spec.describe))
    | Some i ->
      let name = String.sub s 0 i in
      let args = String.sub s (i + 1) (String.length s - i - 1) in
      if String.equal name "g6" then Ok (Graph6 args)
      else parse_named name args

let build = function
  | Path n -> Builders.path n
  | Cycle n -> Builders.cycle n
  | Clique n -> Builders.clique n
  | Star n -> Builders.star n
  | Bipartite (a, b) -> Builders.complete_bipartite a b
  | Grid (a, b) -> Builders.grid a b
  | Hypercube d -> Builders.hypercube d
  | Wheel n -> Builders.wheel n
  | Matching k -> Builders.matching k
  | Petersen -> Builders.petersen ()
  | Two_triangles -> Builders.two_triangles ()
  | Gnp { n; p; seed } -> Gen.gnp (Wlcq_util.Prng.create seed) n p
  | Graph6 s -> Graph6.decode s
  | Edges { n; edges } -> Graph.create n edges

let parse s =
  match parse_spec s with
  | Error e -> Error e
  | Ok spec ->
    (try Ok (build spec) with Invalid_argument msg -> Error msg)
