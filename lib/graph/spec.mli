(** Textual graph specifications for the command-line tools and the
    daemon's wire.

    Accepted forms:
    - named families: [path:6], [cycle:5], [clique:4], [star:3],
      [bipartite:3,4], [grid:3,3], [hypercube:3], [wheel:5],
      [matching:3], [petersen], [twotriangles];
    - random graphs: [gnp:n,p,seed] (deterministic in the seed);
    - graph6 strings: [g6:DUW];
    - explicit edge lists: ["6; 0-1 1-2 2-3"] — vertex count, then
      space-separated edges [u-v]. *)

(** [parse s] builds the graph [s] specifies.  An edge list is scanned
    in place and filled straight into the graph's rows.  A spec whose
    graph would have more than {!max_vertices} vertices, or whose
    builder would visit more than [2^22] vertex pairs ([clique],
    [bipartite], [gnp]), is an [Error] naming the limit, found before
    anything is allocated. *)
val parse : string -> (Graph.t, string) result

(** The most vertices a spec may ask for: [2^14]. *)
val max_vertices : int

(** [describe] is a human-readable summary of the accepted forms (for
    [--help] texts). *)
val describe : string
