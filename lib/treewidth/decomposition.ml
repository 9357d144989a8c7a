open Wlcq_graph
module Bitset = Wlcq_util.Bitset

type t = { tree : Graph.t; bags : Bitset.t array }

let make tree bags =
  if Graph.num_vertices tree <> Array.length bags then
    invalid_arg "Decomposition.make: one bag per tree node required";
  if Graph.num_vertices tree > 0 && not (Traversal.is_tree tree) then
    invalid_arg "Decomposition.make: underlying graph is not a tree";
  { tree; bags }

let width d =
  Array.fold_left (fun acc b -> max acc (Bitset.cardinal b)) 0 d.bags - 1

let singleton h =
  let n = Graph.num_vertices h in
  { tree = Graph.empty 1; bags = [| Bitset.full n |] }

let relabel d p =
  let bags =
    Array.map
      (fun b ->
         let nb = Bitset.create (Bitset.capacity b) in
         Bitset.iter (fun v -> Bitset.set nb p.(v)) b;
         nb)
      d.bags
  in
  { d with bags }

let is_valid_for d h =
  let n = Graph.num_vertices h in
  let nodes = Graph.num_vertices d.tree in
  let bag_capacity_ok =
    Array.for_all (fun b -> Bitset.capacity b = n) d.bags
  in
  bag_capacity_ok
  && begin
    (* (T1): every vertex is covered *)
    let covered = Array.make n false in
    Array.iter (Bitset.iter (fun v -> covered.(v) <- true)) d.bags;
    Array.for_all (fun b -> b) covered
  end
  && begin
    (* (T3): every edge lies in some bag *)
    let ok = ref true in
    Graph.iter_edges h (fun u v ->
        if not
            (Array.exists (fun b -> Bitset.mem b u && Bitset.mem b v) d.bags)
        then ok := false);
    !ok
  end
  && begin
    (* (T2): for each vertex, the nodes whose bag contains it induce a
       connected subtree *)
    let ok = ref true in
    (* lint: allow R7 one-shot validation pass over the
       decomposition-sized structure, O(n * nodes) *)
    for v = 0 to n - 1 do
      let holders =
        List.filter (fun t -> Bitset.mem d.bags.(t) v)
          (List.init nodes (fun i -> i))
      in
      match holders with
      | [] -> ok := false
      | first :: _ ->
        let member = Array.make nodes false in
        List.iter (fun t -> member.(t) <- true) holders;
        (* BFS within holders *)
        let seen = Array.make nodes false in
        let queue = Queue.create () in
        seen.(first) <- true;
        Queue.add first queue;
        (* lint: allow R7 BFS within the holder set, each node enqueued
           at most once *)
        while not (Queue.is_empty queue) do
          let t = Queue.take queue in
          Graph.iter_neighbours d.tree t (fun s ->
              if member.(s) && not seen.(s) then begin
                seen.(s) <- true;
                Queue.add s queue
              end)
        done;
        if not (List.for_all (fun t -> seen.(t)) holders) then ok := false
    done;
    !ok
  end

(* Contract away redundant nodes: a tree edge (u, v) with B_u ⊆ B_v
   merges u into v, v inheriting u's other neighbours.  Contraction of
   such an edge preserves (T1)–(T3), and every step removes a node, so
   the fixpoint terminates with at least one node left.  Restricting a
   shared decomposition onto a prefix pattern (Td_count.count_many)
   leaves long chains of empty or duplicated bags; compaction shrinks
   the tree back to the small pattern's scale before the DP runs. *)
let compact d =
  let nodes = Graph.num_vertices d.tree in
  if nodes <= 1 then d
  else begin
    let alive = Array.make nodes true in
    let adj = Array.init nodes (fun _ -> Bitset.create nodes) in
    Graph.iter_edges d.tree (fun u v ->
        Bitset.set adj.(u) v;
        Bitset.set adj.(v) u);
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to nodes - 1 do
        if alive.(u) then begin
          let target = ref (-1) in
          Bitset.iter
            (fun v ->
               if !target < 0 && alive.(v)
                  && Bitset.subset d.bags.(u) d.bags.(v)
               then target := v)
            adj.(u);
          let v = !target in
          if v >= 0 then begin
            alive.(u) <- false;
            Bitset.clear adj.(v) u;
            Bitset.iter
              (fun w ->
                 if w <> v then begin
                   Bitset.clear adj.(w) u;
                   Bitset.set adj.(w) v;
                   Bitset.set adj.(v) w
                 end)
              adj.(u);
            changed := true
          end
        end
      done
    done;
    let index = Array.make nodes (-1) in
    let count = ref 0 in
    for u = 0 to nodes - 1 do
      if alive.(u) then begin
        index.(u) <- !count;
        incr count
      end
    done;
    let edges = ref [] in
    for u = 0 to nodes - 1 do
      if alive.(u) then
        Bitset.iter
          (fun v -> if u < v then edges := (index.(u), index.(v)) :: !edges)
          adj.(u)
    done;
    let bags = Array.make !count (Bitset.create 0) in
    for u = 0 to nodes - 1 do
      if alive.(u) then bags.(index.(u)) <- d.bags.(u)
    done;
    make (Graph.create !count !edges) bags
  end

type rooted = {
  root : int;
  parent : int array;
  postorder : int array;
  children : int array array;
}

(* BFS from the root over the decomposition tree.  Reversing a BFS
   order gives a valid postorder (every node appears after all its
   children), which is exactly what the bottom-up counting DPs need.
   Children arrays are in ascending node order, so any consumer that
   folds over them is deterministic regardless of how the tree edges
   were produced. *)
let rooted ?(root = 0) d =
  let nodes = Graph.num_vertices d.tree in
  if nodes = 0 then invalid_arg "Decomposition.rooted: empty decomposition";
  if root < 0 || root >= nodes then
    invalid_arg "Decomposition.rooted: root out of range";
  let parent = Array.make nodes (-1) in
  let bfs = Array.make nodes root in
  let seen = Array.make nodes false in
  seen.(root) <- true;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let t = bfs.(!head) in
    incr head;
    Graph.iter_neighbours d.tree t (fun s ->
        if not seen.(s) then begin
          seen.(s) <- true;
          parent.(s) <- t;
          bfs.(!tail) <- s;
          incr tail
        end)
  done;
  if !tail <> nodes then
    invalid_arg "Decomposition.rooted: decomposition tree is disconnected";
  let postorder = Array.init nodes (fun i -> bfs.(nodes - 1 - i)) in
  let counts = Array.make nodes 0 in
  for t = 0 to nodes - 1 do
    let p = parent.(t) in
    if p >= 0 then counts.(p) <- counts.(p) + 1
  done;
  let children = Array.map (fun c -> Array.make c (-1)) counts in
  let fill = Array.make nodes 0 in
  (* ascending t ⇒ ascending child order within each slot *)
  for t = 0 to nodes - 1 do
    let p = parent.(t) in
    if p >= 0 then begin
      children.(p).(fill.(p)) <- t;
      fill.(p) <- fill.(p) + 1
    end
  done;
  { root; parent; postorder; children }

let pp ppf d =
  Format.fprintf ppf "decomposition(width=%d)@." (width d);
  Array.iteri
    (fun i b -> Format.fprintf ppf "  bag %d: %a@." i Bitset.pp b)
    d.bags;
  Format.fprintf ppf "  tree: %a" Graph.pp d.tree
