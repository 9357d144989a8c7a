(* Tests for Wlcq_serve: the wlcq/1 wire protocol (round-trip and
   fuzz — malformed frames must come back as structured errors, never
   exceptions or disconnects), end-to-end daemon behaviour against an
   in-process server (sessions, deadlines, shedding, drain, idle
   reaping), and the seeded fault storm: hundreds of injected
   accept/read/write/worker failures against a live daemon, which must
   survive them all and still drain cleanly.

   Every server here runs in its own [Domain] on a fresh temp socket;
   [workers = 1] keeps the fault-injection draw streams deterministic
   (each site is drawn from a single domain, see Fault's contract). *)

module Wire = Wlcq_serve.Wire
module Server = Wlcq_serve.Server
module Client = Wlcq_serve.Client
module Budget = Wlcq_robust.Budget
module Fault = Wlcq_robust.Fault
module Obs = Wlcq_obs.Obs
module Cq = Wlcq_core.Cq
module Parser = Wlcq_core.Parser
module Spec = Wlcq_graph.Spec

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let status_is st (r : Wire.response) =
  String.equal
    (Wire.status_to_string r.Wire.r_status)
    (Wire.status_to_string st)

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Wire: round-trip                                                    *)
(* ------------------------------------------------------------------ *)

(* strings exercising the escaping: newlines, backslashes, '=',
   spaces, NULs and high bytes must all round-trip *)
let gen_string =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 8)
         (oneofl
            [ "a"; "Z"; "0"; " "; "="; "\n"; "\\"; "\\n"; "\x00"; "\xff";
              "cycle:6"; "E(x1, y)"; ":="; "-" ])))

(* deadlines are printed with %g: whole milliseconds round-trip *)
let gen_deadline =
  QCheck.Gen.(
    oneof [ return None; map (fun n -> Some (float_of_int n)) (int_range 1 60_000) ])

let gen_op =
  QCheck.Gen.(
    oneof
      [ return Wire.Ping;
        map3
          (fun k g1 g2 -> Wire.Decide { k; g1; g2 })
          (int_range 1 5) gen_string gen_string;
        map2 (fun query graph -> Wire.Count { query; graph }) gen_string
          gen_string;
        map2
          (fun queries graph -> Wire.Count_batch { queries; graph })
          (list_size (int_range 1 5) gen_string)
          gen_string;
        map (fun graph -> Wire.Treewidth { graph }) gen_string ])

let gen_request =
  QCheck.Gen.(
    map
      (fun (id, deadline_ms, max_live_mb, op) ->
         { Wire.id; deadline_ms; max_live_mb; op })
      (quad gen_string gen_deadline
         (oneof [ return None; map Option.some (int_range 1 4096) ])
         gen_op))

let gen_response =
  QCheck.Gen.(
    map
      (fun (r_id, st, (r_value, r_detail), retry) ->
         {
           Wire.r_id;
           r_status = st;
           r_value;
           r_detail;
           r_retry_after_ms = retry;
         })
      (quad gen_string
         (oneofl
            [ Wire.Ok_; Wire.Degraded; Wire.Exhausted; Wire.Error_;
              Wire.Overloaded; Wire.Draining ])
         (pair gen_string gen_string)
         (oneof [ return None; map Option.some (int_range 0 10_000) ])))

let op_eq (a : Wire.op) (b : Wire.op) =
  match (a, b) with
  | Wire.Ping, Wire.Ping -> true
  | Wire.Decide a, Wire.Decide b ->
    a.k = b.k && String.equal a.g1 b.g1 && String.equal a.g2 b.g2
  | Wire.Count a, Wire.Count b ->
    String.equal a.query b.query && String.equal a.graph b.graph
  | Wire.Count_batch a, Wire.Count_batch b ->
    List.length a.queries = List.length b.queries
    && List.for_all2 String.equal a.queries b.queries
    && String.equal a.graph b.graph
  | Wire.Treewidth a, Wire.Treewidth b -> String.equal a.graph b.graph
  | _ -> false

let request_eq (a : Wire.request) (b : Wire.request) =
  String.equal a.id b.id
  && a.deadline_ms = b.deadline_ms
  && a.max_live_mb = b.max_live_mb
  && op_eq a.op b.op

let response_eq (a : Wire.response) (b : Wire.response) =
  String.equal a.r_id b.r_id
  && a.r_status = b.r_status
  && String.equal a.r_value b.r_value
  && String.equal a.r_detail b.r_detail
  && a.r_retry_after_ms = b.r_retry_after_ms

(* encode -> deframe -> decode is the identity *)
let deframe_one frame =
  let d = Wire.deframer () in
  Wire.feed d (Bytes.of_string frame) (String.length frame);
  match Wire.next_frame d with
  | `Frame payload when Wire.buffered d = 0 -> Some payload
  | `Frame _ | `Await | `Oversize _ -> None

let prop_request_roundtrip =
  qtest "request encode/decode round-trip" (QCheck.make gen_request) (fun r ->
      match deframe_one (Wire.encode_request r) with
      | None -> false
      | Some payload -> (
        match Wire.decode_request payload with
        | Ok r' -> request_eq r r'
        | Error _ -> false))

let prop_response_roundtrip =
  qtest "response encode/decode round-trip" (QCheck.make gen_response)
    (fun r ->
      match deframe_one (Wire.encode_response r) with
      | None -> false
      | Some payload -> (
        match Wire.decode_response payload with
        | Ok r' -> response_eq r r'
        | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Wire: fuzz                                                          *)
(* ------------------------------------------------------------------ *)

let gen_junk =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 16)
         (oneof
            [ oneofl
                [ "wlcq/1 "; "wlcq/1 ping"; "wlcq/2 ping"; "reply"; "id=";
                  "=x"; "status=ok"; "k=1"; "\n"; "\\"; "deadline-ms=nan";
                  "query="; "count-batch" ];
              map (String.make 1) (map Char.chr (int_range 0 255)) ])))

let prop_decode_total =
  qtest ~count:500 "decoders are total on junk payloads"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_junk) (fun s ->
      (match Wire.decode_request s with Ok _ | Error _ -> ());
      (match Wire.decode_response s with Ok _ | Error _ -> ());
      true)

(* random bytes fed in random chunk sizes: the deframer never raises
   and either awaits, yields frames, or reports an oversize header *)
let prop_deframer_total =
  qtest ~count:300 "deframer is total on junk streams"
    (QCheck.make
       ~print:(fun (s, k) -> Printf.sprintf "(%S, %d)" s k)
       QCheck.Gen.(pair gen_junk (int_range 1 7)))
    (fun (s, chunk) ->
      let d = Wire.deframer () in
      let n = String.length s in
      let i = ref 0 in
      let ok = ref true in
      while !ok && !i < n do
        let len = min chunk (n - !i) in
        Wire.feed d (Bytes.of_string (String.sub s !i len)) len;
        i := !i + len;
        let rec drain () =
          match Wire.next_frame d with
          | `Frame _ -> drain ()
          | `Await -> ()
          | `Oversize _ -> ok := false  (* terminal, like the server *)
        in
        drain ()
      done;
      true)

let test_deframer_reassembles () =
  let r1 = { Wire.id = "a"; deadline_ms = None; max_live_mb = None; op = Wire.Ping } in
  let r2 =
    {
      Wire.id = "b";
      deadline_ms = Some 5.0;
      max_live_mb = None;
      op = Wire.Treewidth { graph = "cycle:6" };
    }
  in
  let stream = Wire.encode_request r1 ^ Wire.encode_request r2 in
  let d = Wire.deframer () in
  let got = ref [] in
  String.iter
    (fun c ->
       Wire.feed d (Bytes.make 1 c) 1;
       match Wire.next_frame d with
       | `Frame p -> got := p :: !got
       | `Await -> ()
       | `Oversize _ -> Alcotest.fail "oversize on a valid stream")
    stream;
  match List.rev !got with
  | [ p1; p2 ] ->
    (match (Wire.decode_request p1, Wire.decode_request p2) with
     | Ok a, Ok b ->
       check_bool "first frame round-trips" true (request_eq a r1);
       check_bool "second frame round-trips" true (request_eq b r2)
     | _ -> Alcotest.fail "reassembled frames must decode")
  | frames ->
    Alcotest.failf "expected 2 frames, got %d" (List.length frames)

let test_oversize_header () =
  let d = Wire.deframer () in
  let header = Bytes.of_string "\xff\xff\xff\xff" in
  Wire.feed d header 4;
  match Wire.next_frame d with
  | `Oversize n -> check_bool "oversize exceeds the cap" true (n > Wire.max_payload)
  | `Frame _ | `Await -> Alcotest.fail "a lying header must report Oversize"

(* A legal near-cap payload with no '=' (or a bad header) must not
   yield a decode error that echoes the whole input: the server puts
   that message in an error response's [r_detail], and an unencodable
   response would crash the event loop. *)
let test_decode_error_is_bounded () =
  let junk = String.make 900_000 'x' in
  let check_small what = function
    | Ok _ -> Alcotest.failf "%s: junk must not decode" what
    | Error msg ->
      check_bool
        (Printf.sprintf "%s: error message is bounded" what)
        true
        (String.length msg < 1024)
  in
  check_small "malformed line" (Wire.decode_request ("wlcq/1 count\n" ^ junk));
  check_small "bad header" (Wire.decode_request junk);
  check_small "unknown verb" (Wire.decode_request ("wlcq/1 " ^ junk))

(* encode_response is total: hostile-sized detail/id are clamped, an
   oversized value degrades to a stub error — never Invalid_argument
   (which would escape into the daemon's event loop). *)
let test_encode_response_total () =
  let base =
    {
      Wire.r_id = "";
      r_status = Wire.Ok_;
      r_value = "";
      r_detail = "";
      r_retry_after_ms = None;
    }
  in
  let redecode what r =
    let frame = Wire.encode_response r in
    check_bool
      (Printf.sprintf "%s: frame within cap" what)
      true
      (String.length frame <= 4 + Wire.max_payload);
    match deframe_one frame with
    | None -> Alcotest.failf "%s: frame must deframe" what
    | Some payload -> (
      match Wire.decode_response payload with
      | Ok r' -> r'
      | Error e -> Alcotest.failf "%s: must decode: %s" what e)
  in
  let huge = String.make (2 * Wire.max_payload) 'z' in
  let r = redecode "huge detail" { base with r_detail = huge } in
  check_bool "huge detail clamped" true (String.length r.Wire.r_detail < 8192);
  let r = redecode "huge id" { base with r_id = huge } in
  check_bool "huge id clamped" true (String.length r.Wire.r_id < 8192);
  let r = redecode "huge value" { base with r_value = huge } in
  check_bool "huge value dropped" true (String.equal r.Wire.r_value "");
  check_bool "huge value degrades to Error_" true (status_is Wire.Error_ r)

(* a near-cap frame trickled in small chunks must reassemble (and do
   so in amortized linear time — the deframer buffers in a Buffer.t,
   not by repeated string concatenation) *)
let test_deframer_trickle () =
  let req =
    {
      Wire.id = "trickle";
      deadline_ms = None;
      max_live_mb = None;
      op = Wire.Count { query = "q"; graph = String.make 200_000 'g' };
    }
  in
  let stream = Wire.encode_request req ^ Wire.encode_request req in
  let d = Wire.deframer () in
  let got = ref 0 in
  let n = String.length stream in
  let i = ref 0 in
  while !i < n do
    let len = min 37 (n - !i) in
    Wire.feed d (Bytes.of_string (String.sub stream !i len)) len;
    i := !i + len;
    (match Wire.next_frame d with
     | `Frame p ->
       (match Wire.decode_request p with
        | Ok r -> check_bool "trickled frame intact" true (request_eq r req)
        | Error e -> Alcotest.failf "trickled frame must decode: %s" e);
       incr got
     | `Await -> ()
     | `Oversize _ -> Alcotest.fail "oversize on a valid trickled stream")
  done;
  Alcotest.(check int) "both frames reassembled" 2 !got;
  Alcotest.(check int) "buffer fully consumed" 0 (Wire.buffered d)

(* ------------------------------------------------------------------ *)
(* In-process server harness                                           *)
(* ------------------------------------------------------------------ *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wlcq-test-%d-%d.sock" (Unix.getpid ()) !n)

let wait_for ?(timeout_s = 5.0) what f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* run [f] against a live in-process daemon; always drains it *)
let with_server ?(tweak = fun c -> c) f =
  let socket = fresh_socket () in
  let cfg = tweak (Server.default_config ~socket_path:socket) in
  let t = Server.create cfg in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.run ~on_listening:(fun () -> Atomic.set ready true) t)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown t;
      Domain.join d;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      wait_for "server to listen" (fun () -> Atomic.get ready);
      f ~socket ~t)

let req ?deadline_ms ?max_live_mb ~id op =
  { Wire.id; deadline_ms; max_live_mb; op }

let expect_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* a raw socket speaking the framing by hand, for malformed frames *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_send fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let raw_receive ?(timeout_s = 5.0) fd =
  let d = Wire.deframer () in
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Wire.next_frame d with
    | `Frame p -> Wire.decode_response p
    | `Oversize _ -> Error "oversize reply"
    | `Await -> (
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Error "timeout"
      else
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> Error "timeout"
        | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Error "eof"
          | n ->
            Wire.feed d buf n;
            go ()
          | exception Unix.Unix_error _ -> Error "read error"))
  in
  go ()

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let hom_query = "(x1, x2) := exists y . E(x1, y) & E(x2, y)"
let edge_query = "(x1, x2) := E(x1, x2)"

let parse_query s = (Parser.parse_exn s).Parser.query

let parse_graph s =
  match Spec.parse s with
  | Ok g -> g
  | Error e -> Alcotest.failf "bad graph spec %s: %s" s e

let test_request_cycle () =
  with_server (fun ~socket ~t:_ ->
      let c = expect_ok "connect" (Client.connect ~socket ()) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          (* ping *)
          let r = expect_ok "ping" (Client.request c (req ~id:"p1" Wire.Ping)) in
          check_string "ping id echoed" "p1" r.Wire.r_id;
          check_bool "ping ok" true (status_is Wire.Ok_ r);
          check_string "ping value" "pong" r.Wire.r_value;
          (* decide: a 6-cycle and two triangles are 1-WL equivalent *)
          let r =
            expect_ok "decide"
              (Client.request c
                 (req ~id:"d1"
                    (Wire.Decide { k = 1; g1 = "cycle:6"; g2 = "twotriangles" })))
          in
          check_bool "decide ok" true (status_is Wire.Ok_ r);
          check_string "1-WL cannot split C6 from 2xC3" "true" r.Wire.r_value;
          (* count agrees with the in-process engine *)
          let expected =
            Cq.count_answers (parse_query hom_query) (parse_graph "cycle:5")
          in
          let r =
            expect_ok "count"
              (Client.request c
                 (req ~id:"c1" (Wire.Count { query = hom_query; graph = "cycle:5" })))
          in
          check_bool "count ok" true (status_is Wire.Ok_ r);
          check_string "count value" (string_of_int expected) r.Wire.r_value;
          (* batch: counts come back comma-joined, in request order *)
          let e1 =
            Cq.count_answers (parse_query edge_query) (parse_graph "cycle:4")
          in
          let e2 =
            Cq.count_answers (parse_query hom_query) (parse_graph "cycle:4")
          in
          let r =
            expect_ok "batch"
              (Client.request c
                 (req ~id:"b1"
                    (Wire.Count_batch
                       { queries = [ edge_query; hom_query ]; graph = "cycle:4" })))
          in
          check_bool "batch ok" true (status_is Wire.Ok_ r);
          check_string "batch values" (Printf.sprintf "%d,%d" e1 e2)
            r.Wire.r_value;
          (* treewidth *)
          let r =
            expect_ok "treewidth"
              (Client.request c
                 (req ~id:"t1" (Wire.Treewidth { graph = "clique:4" })))
          in
          check_bool "treewidth ok" true (status_is Wire.Ok_ r);
          check_string "tw(K4)" "3" r.Wire.r_value))

(* x0 - y0 - x1 - ... - y(k-2) - x(k-1) *)
let quantified_path k =
  let atoms =
    List.init (k - 1) (fun i ->
        Printf.sprintf "E(x%d,y%d) & E(y%d,x%d)" i i i (i + 1))
  in
  Printf.sprintf "(%s) := exists %s . %s"
    (String.concat ", " (List.init k (Printf.sprintf "x%d")))
    (String.concat " " (List.init (k - 1) (Printf.sprintf "y%d")))
    (String.concat " & " atoms)

(* counts run the Corollary 4 DP and travel as decimal big integers:
   an instance the |V(G)|^|X| enumeration cannot finish in 5 s, and a
   count of 10^20 > max_int *)
let test_count_exact_big () =
  with_server (fun ~socket ~t:_ ->
      let c = expect_ok "connect" (Client.connect ~socket ()) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let path3 = quantified_path 3 and path10 = quantified_path 10 in
          let count id query graph =
            let r =
              expect_ok id
                (Client.request c
                   (req ~id ~deadline_ms:5000.0 (Wire.Count { query; graph })))
            in
            check_bool (id ^ " ok") true (status_is Wire.Ok_ r);
            r.Wire.r_value
          in
          check_string "path3 on a 200-cycle" "1800"
            (count "c200" path3 "cycle:200");
          check_string "10-free path on a 100-clique" "100000000000000000000"
            (count "k100" path10 "clique:100");
          let batch id graph =
            let r =
              expect_ok id
                (Client.request c
                   (req ~id ~deadline_ms:5000.0
                      (Wire.Count_batch { queries = [ path3; path10 ]; graph })))
            in
            check_bool (id ^ " ok") true (status_is Wire.Ok_ r);
            r.Wire.r_value
          in
          (* on the 200-cycle each x(i+1) is x(i) or x(i) +- 2: 200 * 3^9
             answers for the 10-free path *)
          check_string "batch on the 200-cycle" "1800,3936600"
            (batch "b200" "cycle:200");
          check_string "batch on the 100-clique"
            "1000000,100000000000000000000" (batch "bk100" "clique:100")))

let test_malformed_keeps_connection () =
  with_server (fun ~socket ~t:_ ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          (* a well-framed but non-protocol payload: structured error *)
          let junk = "this is not wlcq/1" in
          let frame =
            let n = String.length junk in
            let b = Bytes.create (4 + n) in
            Bytes.set b 0 '\x00';
            Bytes.set b 1 '\x00';
            Bytes.set b 2 '\x00';
            Bytes.set b 3 (Char.chr n);
            Bytes.blit_string junk 0 b 4 n;
            Bytes.to_string b
          in
          raw_send fd frame;
          (match raw_receive fd with
           | Ok r ->
             check_bool "malformed answered with error" true
               (status_is Wire.Error_ r);
             check_bool "error names the problem" true
               (String.length r.Wire.r_detail > 0)
           | Error e -> Alcotest.failf "expected an error reply, got %s" e);
          (* an unparseable but well-formed request line: same deal *)
          raw_send fd
            (Wire.encode_request
               (req ~id:"bad" (Wire.Treewidth { graph = "nonsense:99" })));
          (match raw_receive fd with
           | Ok r ->
             check_bool "bad spec answered with error" true
               (status_is Wire.Error_ r)
           | Error e -> Alcotest.failf "expected an error reply, got %s" e);
          (* a legal near-cap frame with no '=' anywhere: the decode
             error echoing it must be truncated, the error response
             must encode, and the daemon must live (a full echo would
             blow the frame cap and raise inside the event loop) *)
          let big = "wlcq/1 count\n" ^ String.make 900_000 'x' in
          let frame =
            let n = String.length big in
            let b = Bytes.create (4 + n) in
            Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
            Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
            Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
            Bytes.set b 3 (Char.chr (n land 0xff));
            Bytes.blit_string big 0 b 4 n;
            Bytes.to_string b
          in
          raw_send fd frame;
          (match raw_receive fd with
           | Ok r ->
             check_bool "near-cap junk answered with error" true
               (status_is Wire.Error_ r);
             check_bool "echoed excerpt is bounded" true
               (String.length r.Wire.r_detail < 1024)
           | Error e -> Alcotest.failf "expected an error reply, got %s" e);
          (* the connection survived all three *)
          raw_send fd (Wire.encode_request (req ~id:"after" Wire.Ping));
          match raw_receive fd with
          | Ok r ->
            check_string "connection still serves" "pong" r.Wire.r_value
          | Error e -> Alcotest.failf "connection must survive: %s" e))

let test_deadline_exhausts () =
  with_server (fun ~socket ~t:_ ->
      (* 1 ms against a graph the exact solver cannot finish that fast:
         a sound non-Ok_ outcome, and the daemon stays responsive *)
      let r =
        expect_ok "budgeted treewidth"
          (Client.call ~timeout_s:30.0 ~socket
             (req ~id:"dl" ~deadline_ms:1.0
                (Wire.Treewidth { graph = "gnp:40,0.4,3" })))
      in
      check_bool "1 ms deadline cannot stay exact" true
        (match r.Wire.r_status with
         | Wire.Degraded | Wire.Exhausted -> true
         | Wire.Ok_ | Wire.Error_ | Wire.Overloaded | Wire.Draining -> false);
      let r = expect_ok "ping after" (Client.call ~socket (req ~id:"p" Wire.Ping)) in
      check_string "still serving" "pong" r.Wire.r_value)

let test_unallocatable_decide () =
  with_server (fun ~socket ~t:_ ->
      (* 40^9 9-tuples: the worker cannot allocate the tuple space, and
         the reply names Kwl's error instead of "internal error" *)
      let r =
        expect_ok "oversized decide"
          (Client.call ~socket
             (req ~id:"big"
                (Wire.Decide { k = 9; g1 = "clique:40"; g2 = "clique:40" })))
      in
      check_bool "answered with an error" true (status_is Wire.Error_ r);
      check_bool "error names Kwl" true
        (String.length r.Wire.r_detail >= 4
         && String.equal (String.sub r.Wire.r_detail 0 4) "Kwl.");
      let r = expect_ok "ping after" (Client.call ~socket (req ~id:"p" Wire.Ping)) in
      check_string "still serving" "pong" r.Wire.r_value)

let test_overload_sheds () =
  with_server
    ~tweak:(fun c ->
      { c with Server.workers = 1; max_queue = 2; max_queue_per_client = 1 })
    (fun ~socket ~t:_ ->
      let c = expect_ok "connect" (Client.connect ~socket ()) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          (* a burst of slow requests against one worker and a
             one-deep per-client queue: the tail must be shed with a
             structured Overloaded carrying retry-after *)
          let slow i =
            req ~id:(Printf.sprintf "s%d" i) ~deadline_ms:300.0
              (Wire.Treewidth { graph = "gnp:40,0.4,9" })
          in
          for i = 1 to 6 do
            expect_ok "send" (Client.send c (slow i))
          done;
          let responses =
            List.init 6 (fun _ -> expect_ok "receive" (Client.receive c))
          in
          let shed =
            List.filter (fun r -> status_is Wire.Overloaded r) responses
          in
          check_bool "burst sheds at least one request" true
            (List.length shed >= 1);
          List.iter
            (fun r ->
               check_bool "shed reply carries retry-after" true
                 (match r.Wire.r_retry_after_ms with
                  | Some ms -> ms >= 0
                  | None -> false))
            shed;
          check_bool "some request was still served" true
            (List.exists
               (fun r ->
                  match r.Wire.r_status with
                  | Wire.Ok_ | Wire.Degraded | Wire.Exhausted -> true
                  | Wire.Error_ | Wire.Overloaded | Wire.Draining -> false)
               responses);
          (* once the burst is done, admission is open again *)
          let r = expect_ok "ping" (Client.request c (req ~id:"p" Wire.Ping)) in
          check_string "recovered" "pong" r.Wire.r_value))

let test_drain_rejects_and_exits () =
  let socket = fresh_socket () in
  let cfg =
    { (Server.default_config ~socket_path:socket) with Server.workers = 1 }
  in
  let t = Server.create cfg in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.run ~on_listening:(fun () -> Atomic.set ready true) t)
  in
  wait_for "server to listen" (fun () -> Atomic.get ready);
  let c = expect_ok "connect" (Client.connect ~socket ()) in
  let r = expect_ok "ping" (Client.request c (req ~id:"p" Wire.Ping)) in
  check_string "served before drain" "pong" r.Wire.r_value;
  Server.shutdown t;
  (* the flag is polled every tick; give it a moment *)
  Unix.sleepf 0.3;
  (match Client.request c (req ~id:"late" Wire.Ping) with
   | Ok r ->
     check_bool "late request answered Draining" true
       (status_is Wire.Draining r)
   | Error _ ->
     (* equally acceptable: the daemon finished its drain and closed *)
     ());
  Client.close c;
  Domain.join d;
  check_bool "socket file removed after drain" false (Sys.file_exists socket);
  check_bool "not listening after drain" false (Server.listening t)

let test_idle_reap () =
  with_server
    ~tweak:(fun c -> { c with Server.idle_timeout_s = 0.05 })
    (fun ~socket ~t:_ ->
      let c = expect_ok "connect" (Client.connect ~socket ()) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let r = expect_ok "ping" (Client.request c (req ~id:"p" Wire.Ping)) in
          check_string "served while fresh" "pong" r.Wire.r_value;
          Unix.sleepf 0.5;
          (match Client.request c (req ~id:"q" Wire.Ping) with
           | Ok _ -> Alcotest.fail "idle session must have been reaped"
           | Error _ -> ());
          (* a fresh connection is welcome *)
          let r =
            expect_ok "reconnect" (Client.call ~socket (req ~id:"r" Wire.Ping))
          in
          check_string "fresh connection served" "pong" r.Wire.r_value))

let test_periodic_flush_writes_metrics () =
  let metrics = Filename.temp_file "wlcq-metrics" ".prom" in
  Sys.remove metrics;
  with_server
    ~tweak:(fun c ->
      { c with Server.flush_interval_s = 0.05; metrics_out = Some metrics })
    (fun ~socket ~t:_ ->
      let was_enabled = Obs.enabled () in
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) (fun () ->
          let r = expect_ok "ping" (Client.call ~socket (req ~id:"p" Wire.Ping)) in
          check_string "served" "pong" r.Wire.r_value;
          wait_for "periodic metrics flush" (fun () -> Sys.file_exists metrics);
          let ic = open_in metrics in
          let len = in_channel_length ic in
          let body = really_input_string ic len in
          close_in ic;
          Sys.remove metrics;
          check_bool "snapshot is non-empty" true (String.length body > 0);
          check_bool "snapshot is OpenMetrics" true
            (String.length body >= 2 && String.equal (String.sub body 0 2) "# ")))

(* ------------------------------------------------------------------ *)
(* Fault storm                                                         *)
(* ------------------------------------------------------------------ *)

let storm_sites =
  [ Fault.Accept_fail; Fault.Read_stall; Fault.Write_stall; Fault.Worker_raise ]

let storm_injected () =
  List.fold_left (fun acc s -> acc + Fault.injected s) 0 storm_sites

(* Hundreds of seeded faults — dropped accepts, stalled reads and
   writes, workers blowing up mid-request — interleaved with malformed
   frames, tight deadlines and abrupt disconnects.  The daemon must
   survive every one of them, answer a clean ping afterwards, and
   drain to a normal exit. *)
let test_fault_storm () =
  let socket = fresh_socket () in
  let cfg =
    {
      (Server.default_config ~socket_path:socket) with
      Server.workers = 1;
      idle_timeout_s = 0.5;
      write_timeout_s = 0.2;
      drain_timeout_s = 2.0;
      flush_interval_s = 0.0;
    }
  in
  let t = Server.create cfg in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.run ~on_listening:(fun () -> Atomic.set ready true) t)
  in
  wait_for "server to listen" (fun () -> Atomic.get ready);
  Fault.arm ~seed:1234 ~rate:0.4 ~sites:storm_sites ();
  Fun.protect ~finally:Fault.disarm (fun () ->
      let rounds = ref 0 in
      while storm_injected () < 500 && !rounds < 3000 do
        incr rounds;
        let salvo i op = req ~id:(Printf.sprintf "r%d-%d" !rounds i) op in
        (* a short-lived client issuing a mixed burst; every call may
           fail (that is the point) but must fail as a value *)
        (match Client.connect ~timeout_s:0.5 ~socket () with
         | Error _ -> ()
         | Ok c ->
           let fire i op =
             match Client.request c (salvo i op) with
             | Ok _ | Error _ -> ()
           in
           fire 0 Wire.Ping;
           fire 1 (Wire.Count { query = edge_query; graph = "cycle:4" });
           (* leave one request un-received: an abrupt disconnect with
              work in flight *)
           (match Client.send c (salvo 2 Wire.Ping) with
            | Ok () | Error _ -> ());
           Client.close c);
        (* a deliberately hostile client: garbage frame, then vanish *)
        (match raw_connect socket with
         | fd ->
           (try raw_send fd "\x00\x00\x00\x05splat" with _ -> ());
           Unix.close fd
         | exception Unix.Unix_error _ -> ());
        (* a tight-deadline request, one-shot *)
        (match
           Client.call ~timeout_s:0.5 ~socket
             (req ~id:"tight" ~deadline_ms:1.0
                (Wire.Treewidth { graph = "gnp:30,0.3,7" }))
         with
         | Ok _ | Error _ -> ())
      done;
      let injected = storm_injected () in
      check_bool
        (Printf.sprintf "storm injected >= 500 faults (got %d)" injected)
        true (injected >= 500));
  (* faults off: the daemon must still be alive and serving *)
  let rec ping_until n =
    match Client.call ~timeout_s:2.0 ~socket (req ~id:"alive" Wire.Ping) with
    | Ok r -> r
    | Error e ->
      if n = 0 then Alcotest.failf "daemon unresponsive after the storm: %s" e
      else begin
        Unix.sleepf 0.05;
        ping_until (n - 1)
      end
  in
  let r = ping_until 20 in
  check_string "daemon survived the storm" "pong" r.Wire.r_value;
  check_bool "still listening" true (Server.listening t);
  (* clean SIGTERM-style drain: run returns, socket removed *)
  Server.shutdown t;
  Domain.join d;
  check_bool "socket removed after drain" false (Sys.file_exists socket);
  check_bool "drained" false (Server.listening t)

(* A spec past the size limit is refused before anything is built,
   and the connection and the daemon go on serving. *)
let test_oversized_spec_refused () =
  with_server (fun ~socket ~t:_ ->
      let c = expect_ok "connect" (Client.connect ~socket ()) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let names_limit d =
            List.exists
              (fun w -> String.equal w "limit")
              (String.split_on_char ' ' d)
          in
          List.iter
            (fun (id, op) ->
               let r = expect_ok id (Client.request c (req ~id op)) in
               check_bool (id ^ " answered with an error") true
                 (status_is Wire.Error_ r);
               check_bool (id ^ " names the limit") true
                 (names_limit r.Wire.r_detail))
            [ ("tw", Wire.Treewidth { graph = "1000000; 0-1" });
              ("count", Wire.Count { query = edge_query; graph = "clique:100000" });
              ("decide", Wire.Decide { k = 1; g1 = "hypercube:40"; g2 = "path:3" });
              ("gnp", Wire.Treewidth { graph = "gnp:100000,0.5,1" }) ];
          let r =
            expect_ok "next"
              (Client.request c (req ~id:"next" (Wire.Treewidth { graph = "cycle:5" })))
          in
          check_bool "next request served" true (status_is Wire.Ok_ r);
          check_string "next request answered" "2" r.Wire.r_value))

(* ------------------------------------------------------------------ *)
(* Io on non-blocking descriptors                                      *)
(* ------------------------------------------------------------------ *)

(* Each operation makes its call first and waits only after EAGAIN,
   within its bound.  [Client.call] runs every piece end to end in the
   e2e cases "1 ms deadline degrades, daemon lives", "unallocatable
   decide names the cause", "idle sessions are reaped", "periodic
   flush writes the snapshot" and the fault storm; "request cycle over
   one connection" drives [Client.connect] and [Client.request]. *)

module Io = Wlcq_serve.Io

let elapsed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [f client server listener] on a connection made by [Io] itself: a
   listener, a client end from [Io.connect] and its peer from
   [Io.accept] *)
let with_io_sockets f =
  let path = fresh_socket () in
  let l = Io.listen ~path ~backlog:4 in
  let c = expect_ok "connect" (Io.connect ~timeout_s:1.0 ~path) in
  let s =
    match Io.accept ~timeout_s:1.0 l with
    | Some s -> s
    | None -> Alcotest.fail "accept timed out"
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Io.close [ c; s; l ];
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f c s l)

let with_io_pair f = with_io_sockets (fun c s _ -> f c s)

(* A zero-bound call on a blocking descriptor would wait in the
   kernel; [SO_RCVTIMEO] caps that wait at 1 s, so a blocking socket
   shows up as a slow call instead of a hung test. *)
let test_io_nonblocking () =
  with_io_sockets (fun c s l ->
      List.iter (fun fd -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0) [ c; s; l ];
      let buf = Bytes.create 8 in
      List.iter
        (fun (what, fd) ->
           match elapsed (fun () -> Io.read ~timeout_s:0.0 fd buf) with
           | Io.Timeout, dt ->
             check_bool (Printf.sprintf "%s reads at once (%.3f s)" what dt) true
               (dt < 0.5)
           | (Io.Data _ | Io.Eof | Io.Closed), _ ->
             Alcotest.failf "%s: nothing was sent" what)
        [ ("connected end", c); ("accepted end", s) ];
      match elapsed (fun () -> Io.accept ~timeout_s:0.0 l) with
      | None, dt ->
        check_bool (Printf.sprintf "listener accepts at once (%.3f s)" dt) true
          (dt < 0.5)
      | Some _, _ -> Alcotest.fail "no connection was pending")

let test_io_write_full () =
  with_io_pair (fun c _ ->
      (* the peer never reads: the first call fills the socket buffer *)
      let big = String.make (4 lsl 20) 'x' in
      match Io.write_all ~timeout_s:0.05 c big 0 with
      | `All | `Closed -> Alcotest.fail "4 MB cannot fit an unread socket"
      | `Partial pos -> (
        check_bool "the buffer took some bytes" true (pos > 0);
        match elapsed (fun () -> Io.write_all ~timeout_s:0.05 c big pos) with
        | `Partial pos', dt ->
          check_bool "a full buffer takes nothing" true (pos' = pos);
          check_bool
            (Printf.sprintf "waited its bound, within 0.5 s (%.3f s)" dt)
            true
            (dt >= 0.03 && dt < 0.5)
        | (`All | `Closed), _ -> Alcotest.fail "expected a partial write"))

let test_io_read_silent () =
  with_io_pair (fun c s ->
      let buf = Bytes.create 64 in
      (match elapsed (fun () -> Io.read ~timeout_s:0.05 c buf) with
       | Io.Timeout, dt ->
         check_bool
           (Printf.sprintf "timed out within 0.5 s (%.3f s)" dt)
           true
           (dt >= 0.03 && dt < 0.5)
       | (Io.Data _ | Io.Eof | Io.Closed), _ ->
         Alcotest.fail "a silent peer must time out");
      (match elapsed (fun () -> Io.read ~timeout_s:0.0 c buf) with
       | Io.Timeout, dt ->
         check_bool (Printf.sprintf "zero bound returns at once (%.4f s)" dt) true
           (dt < 0.025)
       | (Io.Data _ | Io.Eof | Io.Closed), _ ->
         Alcotest.fail "a silent peer must time out");
      check_bool "the peer's bytes arrive" true
        (match Io.write_all ~timeout_s:0.05 s "abc" 0 with
         | `All -> (
           match Io.read ~timeout_s:1.0 c buf with
           | Io.Data 3 -> true
           | Io.Data _ | Io.Eof | Io.Timeout | Io.Closed -> false)
         | `Partial _ | `Closed -> false);
      Io.close s;
      check_bool "the peer's close reads as Eof" true
        (match Io.read ~timeout_s:1.0 c buf with
         | Io.Eof -> true
         | Io.Data _ | Io.Timeout | Io.Closed -> false))

let test_io_wake_pipe () =
  let r, w = Io.wake_pipe () in
  Fun.protect
    ~finally:(fun () ->
      Io.close r;
      Io.close w)
    (fun () ->
      let chunk = String.make 4096 '!' in
      let rec fill n =
        match Unix.write_substring w chunk 0 4096 with
        | k -> fill (n + k)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> n
      in
      check_bool "the pipe filled" true (fill 0 > 0);
      let (), dt = elapsed (fun () -> Io.notify ~timeout_s:0.0 w) in
      check_bool (Printf.sprintf "notify on a full pipe returns (%.4f s)" dt) true
        (dt < 0.025);
      let (), dt = elapsed (fun () -> Io.notify ~timeout_s:0.05 w) in
      check_bool (Printf.sprintf "a bounded notify returns (%.3f s)" dt) true
        (dt < 0.5);
      let buf = Bytes.create 1 in
      Io.drain_notifications ~timeout_s:0.0 r;
      check_bool "drained" true
        (match Io.read ~timeout_s:0.0 r buf with
         | Io.Timeout -> true
         | Io.Data _ | Io.Eof | Io.Closed -> false);
      Io.notify ~timeout_s:0.0 w;
      check_bool "a wakeup after the drain arrives" true
        (match Io.read ~timeout_s:0.0 r buf with
         | Io.Data 1 -> true
         | Io.Data _ | Io.Timeout | Io.Eof | Io.Closed -> false))

(* ------------------------------------------------------------------ *)
(* The answer store                                                     *)
(* ------------------------------------------------------------------ *)

module Graph = Wlcq_graph.Graph
module Prng = Wlcq_util.Prng
module Cache = Wlcq_cache.Cache
module Exec = Wlcq_serve.Exec

let counter name = Obs.counter_value (Obs.counter name)

(* [spec] under a fresh permutation, its edges shuffled and each edge's
   endpoints in random order *)
let relabel rng spec =
  let g = Result.get_ok (Spec.parse spec) in
  let n = Graph.num_vertices g in
  let p = Array.init n Fun.id in
  Prng.shuffle rng p;
  let edges = Array.of_list (Graph.edges g) in
  Prng.shuffle rng edges;
  String.concat " "
    ((string_of_int n ^ ";")
     :: Array.to_list
          (Array.map
             (fun (u, v) ->
                if Prng.bool rng then Printf.sprintf "%d-%d" p.(u) p.(v)
                else Printf.sprintf "%d-%d" p.(v) p.(u))
             edges))

let exec ?budget op =
  Exec.execute ~budget:(Option.value budget ~default:Budget.unlimited)
    (req ~id:"x" op)

let with_store f =
  Cache.clear ();
  Fun.protect ~finally:Cache.clear f

let test_relabelled_resubmission () =
  with_store (fun () ->
      let rng = Prng.create 11 in
      let same what op op' =
        let r = exec op in
        check_bool (what ^ ": exact") true (status_is Wire.Ok_ r);
        let h0 = counter "cache.hit" in
        let r' = exec op' in
        check_bool (what ^ ": exact again") true (status_is Wire.Ok_ r');
        check_string (what ^ ": same value") r.Wire.r_value r'.Wire.r_value;
        check_bool (what ^ ": answered by the tier") true
          (counter "cache.hit" > h0)
      in
      let g = "gnp:30,0.3,4" in
      same "count"
        (Wire.Count
           { query = "(x1, x2, x3) := exists y . E(x1, y) & E(x2, y) & E(x3, y)";
             graph = g })
        (Wire.Count
           { query = "(c, a, b) := exists hub . E(hub, b) & E(c, hub) & E(hub, a)";
             graph = relabel rng g });
      let g = "gnp:24,0.3,2" in
      same "batch"
        (Wire.Count_batch
           { queries =
               [ "(x1, x2) := exists y z . E(x1, y) & E(y, z) & E(z, x2)";
                 "(x1, x2) := exists y . E(x1, y) & E(x2, y)" ];
             graph = g })
        (Wire.Count_batch
           { queries =
               [ "(b, a) := exists v w . E(w, a) & E(v, w) & E(b, v)";
                 "(p, q) := exists m . E(m, q) & E(p, m)" ];
             graph = relabel rng g });
      let g1 = "gnp:16,0.3,1" and g2 = "gnp:16,0.3,2" in
      same "2-WL decide"
        (Wire.Decide { k = 2; g1; g2 })
        (Wire.Decide { k = 2; g1 = relabel rng g2; g2 = relabel rng g1 });
      let g = "gnp:16,0.35,3" in
      same "treewidth" (Wire.Treewidth { graph = g })
        (Wire.Treewidth { graph = relabel rng g }))

let test_colour_refinement_unaddressed () =
  with_store (fun () ->
      let rng = Prng.create 12 in
      let g = "gnp:20,0.3,5" in
      let h0 = counter "cache.hit" and m0 = counter "cache.miss" in
      let r = exec (Wire.Decide { k = 1; g1 = g; g2 = relabel rng g }) in
      let r' = exec (Wire.Decide { k = 1; g1 = relabel rng g; g2 = g }) in
      check_string "1-WL verdicts" "true,true"
        (r.Wire.r_value ^ "," ^ r'.Wire.r_value);
      check_bool "no cache hit" true (counter "cache.hit" = h0);
      check_bool "no cache miss" true (counter "cache.miss" = m0))

let test_exhausted_stores_nothing () =
  with_store (fun () ->
      let rng = Prng.create 13 in
      let g1 = "cycle:40" and g2 = "cycle:40" in
      let r =
        exec ~budget:(Budget.create ~deadline_ms:1.0 ())
          (Wire.Decide { k = 2; g1; g2 })
      in
      check_bool "1 ms cannot finish 2-WL on 40 vertices" false
        (status_is Wire.Ok_ r);
      let h0 = counter "cache.hit" and m0 = counter "cache.miss" in
      let r' = exec (Wire.Decide { k = 2; g1 = relabel rng g1; g2 = relabel rng g2 }) in
      check_bool "resubmission computed" true (status_is Wire.Ok_ r');
      check_bool "resubmission missed" true
        (counter "cache.hit" = h0 && counter "cache.miss" > m0))

(* The full and the boolean path query differ only in which variables
   are free, so they must not share a key: in one batch, a shared key
   would store one count for both and answer the resubmission with it
   twice. *)
let test_free_variables_keyed () =
  with_store (fun () ->
      let rng = Prng.create 14 in
      let g = "path:3" in
      let full = "(a, b, c, d, e) := E(a, b) & E(b, c) & E(c, d) & E(d, e)"
      and boolean =
        "() := exists a b c d e . E(a, b) & E(b, c) & E(c, d) & E(d, e)"
      in
      let batch qs graph = exec (Wire.Count_batch { queries = qs; graph }) in
      let r = batch [ full; boolean ] g in
      check_string "first run" "12,1" r.Wire.r_value;
      let h0 = counter "cache.hit" in
      let r' = batch [ full; boolean ] (relabel rng g) in
      check_string "relabelled resubmission" "12,1" r'.Wire.r_value;
      check_bool "answered by the tier" true (counter "cache.hit" > h0);
      let r'' = batch [ boolean; full ] (relabel rng g) in
      check_string "queries swapped" "1,12" r''.Wire.r_value)

(* A large graph's labelling is bounded by the request's deadline, and
   a treewidth whose bracket closes is never labelled at all. *)
let test_large_graph_prompt () =
  with_store (fun () ->
      let timed op =
        let t0 = Unix.gettimeofday () in
        let r = exec ~budget:(Budget.create ~deadline_ms:1.0 ()) op in
        (r, Unix.gettimeofday () -. t0)
      in
      let r, dt = timed (Wire.Treewidth { graph = "star:3000" }) in
      check_bool "treewidth answered" true
        (status_is Wire.Ok_ r || status_is Wire.Degraded r);
      check_bool "treewidth within 1 s" true (dt < 1.0);
      let r, dt = timed (Wire.Treewidth { graph = "3000;" }) in
      check_bool "edgeless treewidth answered" true
        (status_is Wire.Ok_ r || status_is Wire.Degraded r);
      check_bool "edgeless treewidth within 1 s" true (dt < 1.0))

(* ------------------------------------------------------------------ *)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Obs.set_enabled true;
  Alcotest.run "serve"
    [
      ( "wire",
        [
          prop_request_roundtrip;
          prop_response_roundtrip;
          prop_decode_total;
          prop_deframer_total;
          Alcotest.test_case "deframer reassembles split frames" `Quick
            test_deframer_reassembles;
          Alcotest.test_case "oversize header detected" `Quick
            test_oversize_header;
          Alcotest.test_case "decode errors bound the echoed input" `Quick
            test_decode_error_is_bounded;
          Alcotest.test_case "encode_response is total on hostile sizes" `Quick
            test_encode_response_total;
          Alcotest.test_case "near-cap frames reassemble from a trickle" `Quick
            test_deframer_trickle;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "request cycle over one connection" `Quick
            test_request_cycle;
          Alcotest.test_case "malformed frames keep the connection" `Quick
            test_malformed_keeps_connection;
          Alcotest.test_case "1 ms deadline degrades, daemon lives" `Quick
            test_deadline_exhausts;
          Alcotest.test_case "overload sheds with retry-after" `Quick
            test_overload_sheds;
          Alcotest.test_case "drain rejects late work and exits" `Quick
            test_drain_rejects_and_exits;
          Alcotest.test_case "idle sessions are reaped" `Quick test_idle_reap;
          Alcotest.test_case "periodic flush writes the snapshot" `Quick
            test_periodic_flush_writes_metrics;
          Alcotest.test_case "unallocatable decide names the cause" `Quick
            test_unallocatable_decide;
          Alcotest.test_case "exact big counts past enumeration" `Quick
            test_count_exact_big;
          Alcotest.test_case "relabelled resubmissions hit the store" `Quick
            test_relabelled_resubmission;
          Alcotest.test_case "1-WL decides are never addressed" `Quick
            test_colour_refinement_unaddressed;
          Alcotest.test_case "exhausted requests store nothing" `Quick
            test_exhausted_stores_nothing;
          Alcotest.test_case "free variables are part of the key" `Quick
            test_free_variables_keyed;
          Alcotest.test_case "large graphs answer within the deadline" `Quick
            test_large_graph_prompt;
          Alcotest.test_case "oversized specs are refused, daemon lives" `Quick
            test_oversized_spec_refused;
        ] );
      ( "io",
        [
          Alcotest.test_case "descriptors are non-blocking" `Quick
            test_io_nonblocking;
          Alcotest.test_case "write_all on a full socket is partial" `Quick
            test_io_write_full;
          Alcotest.test_case "read from a silent peer times out" `Quick
            test_io_read_silent;
          Alcotest.test_case "wake pipe: full notify, drain" `Quick
            test_io_wake_pipe;
        ] );
      ( "storm",
        [ Alcotest.test_case "500-fault storm, clean drain" `Slow
            test_fault_storm ] );
    ]
