open Wlcq_graph
module Ordering = Wlcq_util.Ordering
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome
module Fault = Wlcq_robust.Fault
module Dispatch = Wlcq_dispatch.Dispatch

type result = { colours : int array; num_colours : int; rounds : int }

(* Engine metrics (see DESIGN.md, "Observability").  Registration is a
   pure function call into an Atomic-backed registry, so these
   top-level bindings carry no lint-visible mutable state. *)
let m_runs = Obs.counter "kwl.runs"
let m_rounds = Obs.counter "kwl.rounds"
let m_dirty = Obs.counter "kwl.dirty_tuples"
let m_collisions = Obs.counter "kwl.hash_collisions"
let m_par_rounds = Obs.counter "kwl.parallel_rounds"
let m_seq_rounds = Obs.counter "kwl.sequential_rounds"
let m_prefix_fallbacks = Obs.counter "robust.fallback.kwl_prefix"
let m_exhausted = Obs.counter "robust.fallback.kwl_exhausted"
let m_spawn_demotions = Obs.counter "robust.fallback.kwl_seq_compute"
let d_round_ns = Obs.distribution "kwl.round_ns"

(* Tuples are encoded in base n: the tuple (v_0, ..., v_{k-1}) has
   index sum_i v_i * n^(k-1-i).  [place] are the per-position place
   values, so substituting coordinate i by w is
   idx + (w - v_i) * place.(i). *)

(* [tuple_count k n] is n^k, with an overflow guard: the colour buffer
   is a flat array over the tuple space, so n^k must fit
   [Sys.max_array_length] (and the k.n^k decode table must fit too). *)
let tuple_count k n =
  let limit = Sys.max_array_length in
  let rec go acc i =
    if i = 0 then acc
    else if n > 0 && acc > limit / n then
      invalid_arg
        (Printf.sprintf
           "Kwl.tuple_count: tuple space n^k = %d^%d exceeds Sys.max_array_length" n k)
    else go (acc * n) (i - 1)
  in
  let c = go 1 k in
  if k > 0 && c > limit / (max k 1) then
    invalid_arg
      (Printf.sprintf
         "Kwl.tuple_count: decode table k * n^k = %d * %d^%d exceeds \
         Sys.max_array_length"
         k n k);
  c

let decode_tuple k n idx =
  let t = Array.make k 0 in
  let r = ref idx in
  for i = k - 1 downto 0 do
    t.(i) <- !r mod n;
    r := !r / n
  done;
  t

(* ------------------------------------------------------------------ *)
(* Reference implementation (the original list-based engine).          *)
(* Kept verbatim so the optimised engine below can be differentially   *)
(* checked against it; do not "optimise" this code.                    *)
(* ------------------------------------------------------------------ *)

let atomic_ref g k idx =
  let n = Graph.num_vertices g in
  let t = decode_tuple k n idx in
  let sig_ = ref [] in
  for i = k - 1 downto 0 do
    for j = k - 1 downto i + 1 do
      let eq = if t.(i) = t.(j) then 1 else 0 in
      let adj = if Graph.adjacent g t.(i) t.(j) then 1 else 0 in
      sig_ := (2 * eq) + adj :: !sig_
    done
  done;
  !sig_

(* Jointly canonicalise labels to 0..c-1 under an explicit order. *)
let canonicalise cmp labelled =
  let distinct =
    List.sort_uniq cmp (List.concat_map Array.to_list labelled)
  in
  let ids = Hashtbl.create 256 in
  List.iteri (fun i s -> Hashtbl.replace ids s i) distinct;
  (List.map (Array.map (Hashtbl.find ids)) labelled, List.length distinct)

let run_many_reference k graphs =
  if k < 2 then
    invalid_arg "Kwl.run_many_reference: requires k >= 2 (use Refinement for k = 1)";
  let sizes = List.map (fun g -> Graph.num_vertices g) graphs in
  let tuple_counts = List.map (fun n -> tuple_count k n) sizes in
  (* initial colouring by atomic type *)
  let init =
    List.map2
      (fun g count -> Array.init count (fun idx -> atomic_ref g k idx))
      graphs tuple_counts
  in
  let colourings, num = canonicalise Ordering.int_list init in
  let round colourings =
    let signatures =
      List.map2
        (fun (g, count) colours ->
           let n = Graph.num_vertices g in
           (* place value of coordinate i in the base-n encoding *)
           let place = Array.make k 1 in
           for i = k - 2 downto 0 do place.(i) <- place.(i + 1) * n done;
           Array.init count (fun idx ->
               let t = decode_tuple k n idx in
               let entries = ref [] in
               for w = 0 to n - 1 do
                 let entry =
                   (* lint: hot-alloc naive k-WL round: the per-tuple signature lists are the round's output (reference oracle) *)
                   Array.init k (fun i ->
                       (* index of t with coordinate i replaced by w *)
                       colours.(idx + ((w - t.(i)) * place.(i))))
                 in
                 (* lint: hot-alloc naive k-WL round, as above *)
                 entries := Array.to_list entry :: !entries
               done;
               (colours.(idx), List.sort Ordering.int_list !entries)))
        (List.combine graphs tuple_counts)
        colourings
    in
    canonicalise
      (Ordering.pair Int.compare (List.compare Ordering.int_list))
      signatures
  in
  let rec go colourings num rounds =
    let colourings', num' = round colourings in
    if num' = num then (colourings, num, rounds)
    else go colourings' num' (rounds + 1)
  in
  let colourings, num, rounds = go colourings num 0 in
  List.map (fun colours -> { colours; num_colours = num; rounds }) colourings

let run_reference k g =
  match run_many_reference k [ g ] with [ r ] -> r | _ -> assert false

let run_pair_reference k g1 g2 =
  match run_many_reference k [ g1; g2 ] with
  | [ r1; r2 ] -> (r1, r2)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The optimised engine.                                               *)
(*                                                                     *)
(* Layout: per graph a flat [int array] of tuple colours plus a        *)
(* precomputed decode table (tuples.(idx*k + i) = coordinate i).       *)
(* Colour ids live in one namespace shared by all graphs and are never *)
(* reused: a class that splits keeps its id for one part and fresh ids *)
(* are allocated for the others, so refinement is visible as "some     *)
(* tuple's colour changed to a brand-new id".                          *)
(*                                                                     *)
(* Each round recolours only the dirty tuples: those with a            *)
(* substitution neighbour (a tuple differing in at most one            *)
(* coordinate) whose colour changed last round.  This is sound because *)
(* fresh ids are globally fresh: a dirty tuple's new signature         *)
(* contains an id that existed in no previous signature, so it can     *)
(* never collide with the (unchanged) signature of a clean tuple, and  *)
(* a clean tuple's signature is literally unchanged.                   *)
(*                                                                     *)
(* A signature is [old colour; sorted entries] where entry w packs the *)
(* k colours (c(t[0/w]), ..., c(t[k-1/w])) into one int when they fit  *)
(* (bits-per-colour * k <= 62) and into k ints otherwise.  Signatures  *)
(* are renumbered through a hashtable keyed on a 64-bit rolling hash,  *)
(* with every probe compared against the stored packed signature, so   *)
(* correctness never depends on hash luck.                             *)
(*                                                                     *)
(* The per-round signature computation writes to disjoint slots of a   *)
(* shared arena and is parallelised over chunks of the dirty list with *)
(* Domain.spawn when the round is large enough to pay for the spawns.  *)
(* Renumbering stays sequential and deterministic.                     *)
(* ------------------------------------------------------------------ *)

(* What the initial colouring reads for each tuple: the (equality,
   adjacency) pattern of a plain graph, or an atomic type id the caller
   computed (knowledge-graph k-WL encodes vertex labels and labelled
   edge directions this way; see [run_many_typed_budgeted]). *)
type atoms = Adjacency of Graph.t | Typed of int array

type graph_state = {
  atoms : atoms;
  n : int;
  count : int;
  tuples : int array;  (* count * k decode table *)
  place : int array;  (* k place values *)
  colours : int array;  (* count tuple colours *)
  dirty : Bytes.t;  (* count dirty flags for the next round *)
}

let hash_mix h x =
  let h = (h lxor x) * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  (h * 0xBF58476D1CE4E5B) land max_int

let hash_segment arena base len =
  let h = ref 0x27220A95 in
  for i = base to base + len - 1 do
    (* lint: allow R2 i ranges over [base, base+len) inside the arena *)
    h := hash_mix !h (Array.unsafe_get arena i)
  done;
  !h

let seg_equal arena b1 b2 len =
  let rec go i =
    i = len
    (* lint: allow R2 both segments lie inside the arena by construction *)
    || Array.unsafe_get arena (b1 + i) = Array.unsafe_get arena (b2 + i)
       && go (i + 1)
  in
  go 0

(* In-place ascending sort of arr.[lo, lo+len): insertion sort for the
   short arrays the engine produces, falling back to Array.sort via a
   copy for long ones. *)
let sort_int_range arr lo len =
  if len <= 48 then
    for i = lo + 1 to lo + len - 1 do
      let x = arr.(i) in
      let j = ref (i - 1) in
      while !j >= lo && arr.(!j) > x do
        arr.(!j + 1) <- arr.(!j);
        decr j
      done;
      arr.(!j + 1) <- x
    done
  else begin
    let tmp = Array.sub arr lo len in
    Array.sort (fun (a : int) b -> if a < b then -1 else if a > b then 1 else 0) tmp;
    Array.blit tmp 0 arr lo len
  end

(* Sort the [n] blocks of [k] ints starting at [lo] lexicographically,
   via a permutation of block indices (the unpacked-signature path). *)
let sort_blocks arr lo n k =
  let perm = Array.init n (fun i -> i) in
  let cmp a b =
    let ba = lo + (a * k) and bb = lo + (b * k) in
    let rec go i =
      if i = k then 0
      else
        let x = arr.(ba + i) and y = arr.(bb + i) in
        if x < y then -1 else if x > y then 1 else go (i + 1)
    in
    go 0
  in
  Array.sort cmp perm;
  let tmp = Array.sub arr lo (n * k) in
  Array.iteri
    (fun pos p -> Array.blit tmp (p * k) arr (lo + (pos * k)) k)
    perm

(* Every buffer of the engine is sized by the tuple space: [width]
   words for each of [rows] tuples.  One the heap cannot serve is
   reported like the [tuple_count] overflow guard, as [Invalid_argument]
   (a request too large to run), never as an escaping [Out_of_memory]. *)
let tuple_buffer ?(width = 1) rows x =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "Kwl.tuple_buffer: cannot allocate %d x %d words for the tuple space"
         rows width)
  in
  if rows > Sys.max_array_length / width then fail ()
  else try Array.make (rows * width) x with Out_of_memory -> fail ()

let make_state ?(budget = Budget.unlimited) k n atoms =
  let count = tuple_count k n in
  (match atoms with
   | Typed types when Array.length types <> count ->
     invalid_arg
       (Printf.sprintf
          "Kwl.make_state: %d atomic types for a tuple space of %d"
          (Array.length types) count)
   | Typed _ | Adjacency _ -> ());
  let tuples = tuple_buffer ~width:k (max 1 count) 0 in
  for idx = 0 to count - 1 do
    (* materialising the n^k tuple table is already engine-scale work:
       poll so a tripped deadline stops the run before the first round *)
    Budget.tick_check budget;
    let r = ref idx in
    for i = k - 1 downto 0 do
      tuples.((idx * k) + i) <- !r mod n;
      r := !r / n
    done
  done;
  let place = Array.make k 1 in
  for i = k - 2 downto 0 do
    place.(i) <- place.(i + 1) * n
  done;
  {
    atoms;
    n;
    count;
    tuples;
    place;
    colours = tuple_buffer (max 1 count) (-1);
    dirty = Bytes.make (max 1 count) '\000';
  }

let plain_state ?budget k g = make_state ?budget k (Graph.num_vertices g) (Adjacency g)

(* Atomic type of tuple [idx]: the (equality, adjacency) pattern over
   ordered pairs i < j, packed into one int when k(k-1) <= 62 bits. *)
let atomic_packed st g k idx =
  let tb = idx * k in
  let p = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let u = st.tuples.(tb + i) and v = st.tuples.(tb + j) in
      let eq = if u = v then 1 else 0 in
      let adj = if Graph.adjacent g u v then 1 else 0 in
      p := (!p lsl 2) lor ((2 * eq) + adj)
    done
  done;
  !p

exception Histograms_diverged

(* The engine proper.  [on_round] is called after the initial
   colouring and after every completed round with the number of
   colours in use; it may raise to stop refinement early (used by the
   equivalence oracle's histogram check). *)
(* Budget protocol (mirrors Td_count.run_packed): the driver raises
   [Budget.Exhausted] only during the sequential initial colouring —
   before any round state exists.  Inside rounds, workers tick the
   shared atomic trip flag and wind down; the driver inspects the
   verdict after the parallel phase and aborts {e before} renumbering,
   so [st.colours] still holds the last {e completed} round's
   colouring — a sound stable-colour prefix (refinement only splits
   classes, so tuples the prefix separates stay separated by the full
   run). *)
let run_engine_inner ?domains ~budget ~on_round k states =
  (* hoisted once per run: the hot loops below branch on a local bool,
     not on the atomic flag *)
  let on = Obs.enabled () in
  if on then Obs.incr m_runs;
  (* signature-bucket probes that hashed alike but compared unequal;
     accumulated in a run-local cell and flushed once at the end *)
  let collisions = ref 0 in
  let total = Array.fold_left (fun acc st -> acc + st.count) 0 states in
  let max_n = Array.fold_left (fun acc st -> max acc st.n) 0 states in
  (* bits per colour id; ids are < total, the number of tuples *)
  let bits =
    let rec go b = if 1 lsl b >= max 2 total then b else go (b + 1) in
    go 1
  in
  let packed = bits * k <= 62 in
  let entry_words = if packed then 1 else k in
  let sigw = 1 + (max_n * entry_words) in
  let next_colour = ref 0 in
  (* hoisted miss continuation for the initial-colouring probe: an
     anonymous one allocates a closure per tuple (R9) *)
  let fresh_colour () =
    let c = !next_colour in
    incr next_colour;
    c
  in
  (* open-addressing probe table shared by the initial colouring and
     the per-round renumbering.  The previous representation — a
     Hashtbl of boxed (base, colour) bucket lists — allocated a list
     cell per insertion in the hottest loop of the engine; the probe
     arrays allocate nothing per tuple.  A slot holds the arena base of
     a signature group's first member, its hash and its colour; linear
     probing at load factor <= 1/2.  Groups get fresh colours in the
     same (slot-index) order as before, so colour numberings stay
     byte-identical to the bucketed implementation. *)
  let probe_cap =
    let rec go c = if c >= 2 * max 1 total then c else go (c * 2) in
    go 64
  in
  let probe_mask = probe_cap - 1 in
  let probe_base = tuple_buffer probe_cap (-1) in
  let probe_hash = tuple_buffer probe_cap 0 in
  let probe_colour = tuple_buffer probe_cap 0 in
  (* find-or-insert for the width-[width] segment at [base] of [arena'];
     on a miss [fresh ()] names the new group's colour.  [collisions]
     keeps its historical meaning: probes that hashed alike but
     compared unequal. *)
  let probe_find arena' width h base fresh =
    let slot = ref (h land probe_mask) in
    let res = ref (-1) in
    while !res < 0 do
      let b = probe_base.(!slot) in
      if b < 0 then begin
        probe_base.(!slot) <- base;
        probe_hash.(!slot) <- h;
        let c = fresh () in
        probe_colour.(!slot) <- c;
        res := c
      end
      else if probe_hash.(!slot) = h then begin
        if seg_equal arena' b base width then res := probe_colour.(!slot)
        else begin
          incr collisions;
          slot := (!slot + 1) land probe_mask
        end
      end
      else slot := (!slot + 1) land probe_mask
    done;
    !res
  in
  (* ---------------- initial colouring by atomic type ---------------- *)
  let atomic_fits = k * (k - 1) <= 62 in
  (* arena of atomic signatures, one slot of width aw per tuple; a
     caller-typed tuple fills the first word of its slot *)
  let aw = if atomic_fits then 1 else k * (k - 1) / 2 in
  let init_arena = tuple_buffer ~width:aw (max 1 total) 0 in
  let slot0 = ref 0 in
  Array.iter
    (fun st ->
       for idx = 0 to st.count - 1 do
         Budget.tick_check budget;
         let base = !slot0 * aw in
         (match st.atoms with
          | Typed types -> init_arena.(base) <- types.(idx)
          | Adjacency g when atomic_fits ->
            init_arena.(base) <- atomic_packed st g k idx
          | Adjacency g ->
            let tb = idx * k in
            let o = ref base in
            for i = 0 to k - 1 do
              for j = i + 1 to k - 1 do
                let u = st.tuples.(tb + i) and v = st.tuples.(tb + j) in
                let eq = if u = v then 1 else 0 in
                let adj = if Graph.adjacent g u v then 1 else 0 in
                init_arena.(!o) <- (2 * eq) + adj;
                incr o
              done
            done);
         let h = hash_segment init_arena base aw in
         let colour = probe_find init_arena aw h base fresh_colour in
         st.colours.(idx) <- colour;
         incr slot0
       done)
    states;
  on_round !next_colour;
  (* ------------------------- refinement rounds ---------------------- *)
  (* per-round job list: graph index + tuple index, slot = position *)
  let jobs_g = tuple_buffer (max 1 total) 0 in
  let jobs_t = tuple_buffer (max 1 total) 0 in
  let hashes = tuple_buffer (max 1 total) 0 in
  let arena = tuple_buffer ~width:sigw (max 1 total) 0 in
  let changed_g = tuple_buffer (max 1 total) 0 in
  let changed_t = tuple_buffer (max 1 total) 0 in
  (* class bookkeeping, sized by the id ceiling [total] *)
  let class_size = tuple_buffer (max 1 total) 0 in
  Array.iter
    (fun st ->
       for idx = 0 to st.count - 1 do
         class_size.(st.colours.(idx)) <- class_size.(st.colours.(idx)) + 1
       done)
    states;
  let dirty_in_class = tuple_buffer (max 1 total) 0 in
  let claimed = Bytes.make (max 1 total) '\000' in
  (* signature computation for jobs in [lo, hi) — the parallel part;
     writes only to disjoint arena / hashes slots.  A tripped budget
     abandons the rest of the chunk (the driver discards the whole
     round, so partially filled slots are never read). *)
  let compute_range lo hi =
    let entry = Array.make (max 1 (max_n * entry_words)) 0 in
    try
      for s = lo to hi - 1 do
        Budget.tick budget;
        if not (Budget.live budget) then raise_notrace Stdlib.Exit;
        let st = states.(jobs_g.(s)) in
      let idx = jobs_t.(s) in
      let n = st.n in
      let colours = st.colours and tuples = st.tuples and place = st.place in
      let tb = idx * k in
      if packed then begin
        for w = 0 to n - 1 do
          let p = ref 0 in
          for i = 0 to k - 1 do
            (* lint: allow R2 the decode table has k entries per tuple *)
            let ti = Array.unsafe_get tuples (tb + i) in
            (* lint: allow R2 i < k = |place| *)
            let pl = Array.unsafe_get place i in
            (* lint: allow R2 substituting coordinate i by w stays inside
               this graph's segment of the colour buffer *)
            let c = Array.unsafe_get colours (idx + ((w - ti) * pl)) in
            p := (!p lsl bits) lor c
          done;
          (* lint: allow R2 w < n <= |entry| by construction *)
          Array.unsafe_set entry w !p
        done;
        (* pad so joint runs over graphs of different sizes compare
           fixed-width signatures; -1 sorts before any packed entry *)
        for w = n to max_n - 1 do entry.(w) <- -1 done;
        sort_int_range entry 0 max_n
      end
      else begin
        for w = 0 to n - 1 do
          for i = 0 to k - 1 do
            entry.((w * k) + i) <-
              colours.(idx + ((w - tuples.(tb + i)) * place.(i)))
          done
        done;
        for j = n * k to (max_n * k) - 1 do entry.(j) <- -1 done;
        sort_blocks entry 0 max_n k
      end;
      let base = s * sigw in
      arena.(base) <- colours.(idx);
      Array.blit entry 0 arena (base + 1) (max_n * entry_words);
      hashes.(s) <- hash_segment arena base sigw
      done
    with Stdlib.Exit -> ()
  in
  let requested_domains =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  let compute_all m =
    (* only fan out when the round is big enough to amortise spawns *)
    let nd =
      Dispatch.wl_domains ~requested:requested_domains ~jobs:m
        ~weight:(m * max_n * k)
        ~threshold:(Dispatch.calibration ()).Dispatch.wl_parallel_min
    in
    if on then Obs.incr (if nd <= 1 then m_seq_rounds else m_par_rounds);
    if nd <= 1 then compute_range 0 m
    else begin
      let chunk = (m + nd - 1) / nd in
      (* spawn-site fault hook: a chunk whose spawn "fails" is demoted
         to the driver, which computes it itself after its own chunk —
         the arena slots written are the same either way, so results
         stay byte-identical *)
      let rec spawn_from d workers demoted =
        if d >= nd - 1 then (List.rev workers, List.rev demoted)
        else begin
          let lo = (d + 1) * chunk in
          let hi = min m (lo + chunk) in
          if Fault.should_fail Fault.Domain_spawn then
            spawn_from (d + 1) workers ((lo, hi) :: demoted)
          else
            let w = Domain.spawn (fun () -> if lo < hi then compute_range lo hi) in
            spawn_from (d + 1) (w :: workers) demoted
        end
      in
      let workers, demoted = spawn_from 0 [] [] in
      compute_range 0 (min chunk m);
      (match demoted with
       | [] -> ()
       | _ :: _ ->
         Obs.incr m_spawn_demotions;
         Obs.journal ~severity:Obs.Warn
           ~attrs:[ ("demoted_chunks", string_of_int (List.length demoted)) ]
           "kwl.spawn_demotion";
         List.iter (fun (lo, hi) -> if lo < hi then compute_range lo hi) demoted);
      List.iter Domain.join workers
    end
  in
  let rounds = ref 0 in
  (* round 1 recolours everything *)
  let num_jobs = ref 0 in
  Array.iteri
    (fun j st ->
       for idx = 0 to st.count - 1 do
         jobs_g.(!num_jobs) <- j;
         jobs_t.(!num_jobs) <- idx;
         incr num_jobs
       done)
    states;
  let continue = ref (total > 0) in
  let aborted = ref None in
  let do_round () =
    let m = !num_jobs in
    if on then Obs.add m_dirty m;
    compute_all m;
    match Budget.tripped budget with
    | Some r ->
      (* abort before renumbering: the colour buffers still hold the
         last completed round's colouring — a sound prefix *)
      aborted := Some r;
      continue := false
    | None ->
    (* which classes are fully dirty (may keep their id for one part) *)
    for s = 0 to m - 1 do
      let old = arena.(s * sigw) in
      dirty_in_class.(old) <- dirty_in_class.(old) + 1
    done;
    (* sequential, deterministic renumbering *)
    Array.fill probe_base 0 probe_cap (-1);
    let num_changed = ref 0 in
    for s = 0 to m - 1 do
      let st = states.(jobs_g.(s)) in
      let idx = jobs_t.(s) in
      let base = s * sigw in
      let old = arena.(base) in
      let h = hashes.(s) in
      let colour =
        (* a new signature group keeps the old id iff the whole class
           was recoloured this round and no earlier group claimed the
           id (clean classmates own it otherwise) *)
        probe_find arena sigw h base (fun () -> (* lint: hot-alloc renumbering miss continuation: runs once per fresh colour, captures the per-group old/claimed state so it cannot be hoisted *)
            if
              dirty_in_class.(old) = class_size.(old)
              && Bytes.get claimed old = '\000'
            then begin
              Bytes.set claimed old '\001';
              old
            end
            else begin
              let c = !next_colour in
              incr next_colour;
              c
            end)
      in
      if colour <> old then begin
        st.colours.(idx) <- colour;
        changed_g.(!num_changed) <- jobs_g.(s);
        changed_t.(!num_changed) <- idx;
        incr num_changed
      end
    done;
    (* reset per-round class bookkeeping (only the touched entries) *)
    for s = 0 to m - 1 do
      let old = arena.(s * sigw) in
      dirty_in_class.(old) <- 0;
      Bytes.set claimed old '\000'
    done;
    if !num_changed = 0 then continue := false
    else begin
      incr rounds;
      (* update class sizes: the old colour of a moved tuple is still
         in the arena, its new colour is in the colour buffer *)
      for s = 0 to m - 1 do
        let st = states.(jobs_g.(s)) in
        let idx = jobs_t.(s) in
        let old = arena.(s * sigw) in
        let nc = st.colours.(idx) in
        if nc <> old then begin
          class_size.(old) <- class_size.(old) - 1;
          class_size.(nc) <- class_size.(nc) + 1
        end
      done;
      on_round !next_colour;
      (* mark the substitution neighbourhoods of changed tuples dirty *)
      for c = 0 to !num_changed - 1 do
        let st = states.(changed_g.(c)) in
        let idx = changed_t.(c) in
        let tb = idx * k in
        for i = 0 to k - 1 do
          let base = idx - (st.tuples.(tb + i) * st.place.(i)) in
          for w = 0 to st.n - 1 do
            Bytes.set st.dirty (base + (w * st.place.(i))) '\001'
          done
        done
      done;
      (* collect the next round's jobs in deterministic order *)
      num_jobs := 0;
      Array.iteri
        (fun j st ->
           for idx = 0 to st.count - 1 do
             if Bytes.get st.dirty idx = '\001' then begin
               Bytes.set st.dirty idx '\000';
               jobs_g.(!num_jobs) <- j;
               jobs_t.(!num_jobs) <- idx;
               incr num_jobs
             end
           done)
        states
    end
  in
  (* flush even when the equivalence oracle aborts the run by raising
     [Histograms_diverged] out of [on_round] *)
  Fun.protect
    ~finally:(fun () ->
      if on then begin
        Obs.add m_rounds !rounds;
        Obs.add m_collisions !collisions
      end)
    (fun () ->
       while !continue do
         if on then begin
           let t0 = Obs.now_ns () in
           Obs.span "kwl.round" do_round;
           Obs.observe d_round_ns
             (Int64.to_int (Int64.sub (Obs.now_ns ()) t0))
         end
         else Obs.span "kwl.round" do_round
       done);
  (!next_colour, !rounds, !aborted)

(* All entry points funnel through here, so the span covers [run],
   [run_many] and [equivalent] alike; [Histograms_diverged] unwinds
   through the span cleanly ([Fun.protect] closes it). *)
let run_engine ?domains ?(budget = Budget.unlimited) ~on_round k states =
  Obs.span "kwl.run"
    ~attrs:[ ("k", string_of_int k) ]
    (fun () -> run_engine_inner ?domains ~budget ~on_round k states)

let results_of_states states num rounds =
  Array.to_list
    (Array.map
       (fun st ->
          let colours =
            if st.count = Array.length st.colours then st.colours
            else Array.sub st.colours 0 st.count
          in
          { colours; num_colours = num; rounds })
       states)

let run_many ?domains k graphs =
  if k < 2 then
    invalid_arg "Kwl.run_many: requires k >= 2 (use Refinement for k = 1)";
  Obs.entry_point "kwl.run_many" @@ fun () ->
  let states = Array.of_list (List.map (plain_state k) graphs) in
  let num, rounds, _ = run_engine ?domains ~on_round:(fun _ -> ()) k states in
  results_of_states states num rounds

let run ?domains k g =
  match run_many ?domains k [ g ] with [ r ] -> r | _ -> assert false

let run_pair ?domains k g1 g2 =
  match run_many ?domains k [ g1; g2 ] with
  | [ r1; r2 ] -> (r1, r2)
  | _ -> assert false

(* The budgeted ladder over states built by [build] (which may raise
   [Budget.Exhausted] while materialising the tuple space). *)
let run_ladder ?domains ~budget k build =
  Obs.entry_point "kwl.run_many" @@ fun () ->
  match
    let states = Array.of_list (build ()) in
    (states, run_engine ?domains ~budget ~on_round:(fun _ -> ()) k states)
  with
  | exception Budget.Exhausted r ->
    (* tripped during state construction or the initial colouring: no
       complete prefix exists *)
    Obs.incr m_exhausted;
    Obs.journal ~severity:Obs.Warn
      ~attrs:[ ("reason", Budget.reason_to_string r) ]
      "kwl.exhausted";
    `Exhausted r
  | states, (num, rounds, None) -> `Exact (results_of_states states num rounds)
  | states, (num, rounds, Some cause) ->
    Obs.incr m_prefix_fallbacks;
    Obs.journal ~severity:Obs.Warn
      ~attrs:
        [ ("cause", Budget.reason_to_string cause);
          ("rounds", string_of_int rounds) ]
      "kwl.prefix_fallback";
    Outcome.degraded ~cause
      ~fallback:
        (Printf.sprintf "stable colour prefix after %d completed rounds" rounds)
      (results_of_states states num rounds)

(* lint: allow R8 Invalid_argument is the k >= 2 arity validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let run_many_budgeted ?domains ~budget k graphs =
  if k < 2 then
    invalid_arg "Kwl.run_many_budgeted: requires k >= 2 (use Refinement for k = 1)";
  run_ladder ?domains ~budget k (fun () ->
      List.map (plain_state ~budget k) graphs)

(* lint: allow R8 Invalid_argument is the k >= 2 arity and type-table
   validation reporting a caller bug, deliberately outside the Outcome
   envelope *)
let run_many_typed_budgeted ?domains ~budget k structures =
  if k < 2 then
    invalid_arg "Kwl.run_many_typed_budgeted: requires k >= 2";
  run_ladder ?domains ~budget k (fun () ->
      List.map (fun (n, types) -> make_state ~budget k n (Typed types))
        structures)

(* lint: allow R8 Invalid_argument is the k >= 2 arity validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let run_budgeted ?domains ~budget k g =
  match run_many_budgeted ?domains ~budget k [ g ] with
  | `Exact [ r ] -> `Exact r
  | `Degraded ([ r ], reason) -> `Degraded (r, reason)
  | `Exhausted r -> `Exhausted r
  | `Exact _ | `Degraded _ -> assert false

let histogram (r : result) =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun c ->
       Hashtbl.replace counts c
         (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    r.colours;
  List.sort Ordering.int_pair
    (Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts [])

(* Early-exit equivalence: refinement only splits classes, so once the
   two graphs' joint colour histograms diverge they stay diverged; the
   oracle stops at the first diverging round.  A divergence observed
   under a budget is therefore still a definitive [`Exact false] — only
   the "no divergence seen yet" verdict degrades to [`Exhausted]. *)
let equivalent_core ?domains ~budget k g1 g2 =
  if Graph.num_vertices g1 <> Graph.num_vertices g2 then `Exact false
  else begin
    let histograms_equal states num =
      let cnt = Array.make (max 1 num) 0 in
      for idx = 0 to states.(0).count - 1 do
        let c = states.(0).colours.(idx) in
        cnt.(c) <- cnt.(c) + 1
      done;
      for idx = 0 to states.(1).count - 1 do
        let c = states.(1).colours.(idx) in
        cnt.(c) <- cnt.(c) - 1
      done;
      Array.for_all (fun d -> d = 0) cnt
    in
    match
      let states = [| plain_state ~budget k g1; plain_state ~budget k g2 |] in
      run_engine ?domains ~budget
        ~on_round:(fun num ->
          if not (histograms_equal states num) then raise Histograms_diverged)
        k states
    with
    | exception Histograms_diverged -> `Exact false
    | exception Budget.Exhausted r ->
      Obs.incr m_exhausted;
      Obs.journal ~severity:Obs.Warn
        ~attrs:[ ("reason", Budget.reason_to_string r) ]
        "kwl.exhausted";
      `Exhausted r
    | _, _, Some r ->
      (* no divergence seen, but the run did not reach the stable
         colouring: equivalence is undecided *)
      Obs.incr m_exhausted;
      Obs.journal ~severity:Obs.Warn
        ~attrs:[ ("reason", Budget.reason_to_string r) ]
        "kwl.exhausted";
      `Exhausted r
    | _, _, None -> `Exact true
  end

let equivalent ?domains k g1 g2 =
  if k < 2 then
    invalid_arg "Kwl.equivalent: requires k >= 2 (use Refinement for k = 1)";
  match equivalent_core ?domains ~budget:Budget.unlimited k g1 g2 with
  | `Exact b -> b
  | `Exhausted _ -> assert false

(* lint: allow R8 Invalid_argument is the k >= 1 arity validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let equivalent_budgeted ?domains ~budget k g1 g2 =
  if k < 2 then
    invalid_arg
      "Kwl.equivalent_budgeted: requires k >= 2 (use Refinement for k = 1)";
  Obs.entry_point "kwl.equivalent" @@ fun () ->
  equivalent_core ?domains ~budget k g1 g2

let equivalent_reference k g1 g2 =
  let r1, r2 = run_pair_reference k g1 g2 in
  List.equal (Ordering.equal_pair Int.equal Int.equal) (histogram r1) (histogram r2)
