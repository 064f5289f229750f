(** The serve request loop in process ({!Scallop_serve.Server}):

    - [scallop serve] and a [Server] replying into a buffer answer the same
      script with the same bytes;
    - a write waits for its session's in-flight queries;
    - every request gets exactly one [done] line, in request order, after
      its [out] rows;
    - quoted strings holding [,] and [::] go through assert, query and
      retract, and a rejected probability leaves the session's answer
      unchanged. *)

open Scallop_core
open Scallop_serve
module Durable = Scallop_incr.Durable

(* A server wired as [scallop serve -p minmaxprob] wires it with default
   flags ([chaos] and [jobs] aside), fed [feed] and closed; the bytes it
   replied. *)
let serve ?(chaos = Chaos.none) ?(jobs = 1) feed =
  let interp = Interp.default_config () in
  let spec = Registry.Max_min_prob in
  let config = { (Service.default_config ()) with jobs; interp; chaos } in
  let svc = Service.create ~config spec in
  let dmgr = Durable.create (Durable.config ~group_commit:true ~interp spec) in
  let out = Buffer.create 4096 in
  let server = Server.create svc dmgr ~sink:(Buffer.add_string out) in
  feed server;
  Server.close server;
  Service.shutdown svc;
  Durable.shutdown dmgr;
  Buffer.contents out

let serve_lines ?chaos ?jobs lines =
  serve ?chaos ?jobs (fun server ->
      List.iter (fun l -> Server.handle server (Protocol.parse l)) lines)

let split_lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* [ms=] is a wall-clock reading. *)
let drop_ms line =
  String.split_on_char ' ' line
  |> List.map (fun w -> if String.starts_with ~prefix:"ms=" w then "ms=X" else w)
  |> String.concat " "

let words l = String.split_on_char ' ' l

(* The rows of request [n], in reply order. *)
let rows_of n lines =
  let tag = "out " ^ string_of_int n ^ " " in
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:tag l then
        Some (String.sub l (String.length tag) (String.length l - String.length tag))
      else None)
    lines

let status_of n lines =
  let tag = "done " ^ string_of_int n ^ " " in
  match List.filter (String.starts_with ~prefix:tag) lines with
  | [ l ] -> l
  | l -> Alcotest.failf "request %d has %d status lines" n (List.length l)

(* ---- [scallop serve] and [Server] agree ------------------------------------------ *)

let twin_script =
  String.concat "\n"
    [
      "rel p = {(1, 2), (2, 3)};rel q(a, c) = p(a, b), p(b, c);query q";
      "type edge(i32, i32);rel edge = {0.5::(0, 1), 0.25::(1, 2)};rel r(x) = edge(0, x);query \
       r";
      "rel broken = nosuch;query broken";
      "open s1 type edge(i32, i32);rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), \
       edge(b, c);query path";
      "assert s1 0.5::edge(1, 2)";
      "assert s1 edge(2, 3)";
      "";
      "query s1";
      "query s1 path";
      "retract s1 edge(2, 3)";
      "query s1";
      "   ";
      "assert nosuch edge(1, 2)";
      "query nosuch";
      "close nosuch";
      "assert s1";
      "retract s1 0.5::edge(1, 2)";
      "open";
      "stats extra";
      "repl promote";
      "repl bogus";
      "stats";
      "scrub";
      "repl status";
      "close s1";
      "query s1";
      "rel last = {7};query last";
    ]

(* The plan cache counts for the whole process and the WMC cache for the
   whole domain, and other suites ran here first.  Empty both and shift
   their counters by the values they held, so the in-process [stats]
   reads as a fresh process's. *)
let counters_from_now () =
  Session.clear_plan_cache ();
  Wmc.clear_cache ();
  let pc = Session.plan_cache_stats () and wc = Wmc.cache_stats () in
  let base =
    [
      ("hits", pc.Session.hits);
      ("misses", pc.Session.misses);
      ("evictions", pc.Session.evictions);
      ("bdd-hits", wc.Wmc.bdd_hits);
      ("bdd-misses", wc.Wmc.bdd_misses);
      ("result-hits", wc.Wmc.result_hits);
      ("result-misses", wc.Wmc.result_misses);
      ("resets", wc.Wmc.resets);
    ]
  in
  let shift w =
    match String.split_on_char '=' w with
    | [ k; v ] -> (
        match (List.assoc_opt k base, int_of_string_opt v) with
        | Some b, Some v -> Printf.sprintf "%s=%d" k (v - b)
        | _ -> w)
    | _ -> w
  in
  fun line ->
    match words line with
    | "out" :: _ :: ("plan-cache" | "wmc") :: _ ->
        String.concat " " (List.map shift (words line))
    | _ -> line

let test_cli_twin () =
  let path = Filename.temp_file "scallop-server" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc twin_script);
  let out = Filename.temp_file "scallop-server" ".out" in
  let cmd =
    Fmt.str "../bin/scallop.exe serve -p minmaxprob < %s > %s 2> /dev/null"
      (Filename.quote path) (Filename.quote out)
  in
  Alcotest.(check int) "scallop serve exits 0" 0 (Sys.command cmd);
  let cli = In_channel.with_open_bin out In_channel.input_all in
  let rebase = counters_from_now () in
  let lib =
    serve (fun server ->
        In_channel.with_open_bin path (fun ic ->
            let requests = Protocol.reader ic in
            Seq.iter (Server.handle server)
              (Seq.of_dispenser (fun () -> Protocol.read_request requests))))
  in
  Sys.remove path;
  Sys.remove out;
  let norm ?(f = Fun.id) s = List.map (fun l -> drop_ms (f l)) (split_lines s) in
  Alcotest.(check (list string)) "same replies" (norm cli) (norm ~f:rebase lib);
  (* the script reached every reply kind *)
  let lines = split_lines cli in
  Alcotest.(check int) "one status line per non-blank line" 25
    (List.length (List.filter (String.starts_with ~prefix:"done ") lines));
  List.iter
    (fun want ->
      if not (List.exists (fun l -> List.mem want (words l)) lines) then
        Alcotest.failf "no reply has %S" want)
    [ "compile"; "plan-cache"; "scrub"; "role=none"; "closed"; "retracted"; "unknown" ]

(* ---- a write waits for in-flight queries ----------------------------------------- *)

let tc_open =
  "open s type edge(i32, i32);rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), edge(b, \
   c);query path"

(* Every attempt stalls 50 ms on one of two workers, so the assert arrives
   while query 2 still waits to run: it must wait for that query. *)
let test_write_waits () =
  let chaos = { Chaos.none with latency_prob = 1.0; latency = 0.05 } in
  let lines =
    split_lines
      (serve_lines ~chaos ~jobs:2
         [ tc_open; "assert s edge(0, 1)"; "query s"; "assert s edge(1, 2)"; "query s" ])
  in
  Alcotest.(check (list string)) "the query before the write" [ "1.000000::path(0, 1)" ]
    (rows_of 2 lines);
  Alcotest.(check (list string))
    "the query after it"
    [ "1.000000::path(0, 1)"; "1.000000::path(0, 2)"; "1.000000::path(1, 2)" ]
    (List.sort compare (rows_of 4 lines));
  Alcotest.(check string) "the write" "done 3 ok asserted s" (status_of 3 lines)

(* ---- one status line per request, in request order ------------------------------- *)

let test_one_status_per_request () =
  let rng = Random.State.make [| 11 |] in
  let session k =
    match Random.State.int rng 6 with
    | 0 | 1 -> Printf.sprintf "assert s edge(%d, %d)" k (k + 1)
    | 2 -> Printf.sprintf "retract s edge(%d, %d)" (k - 1) k
    | 3 -> "query s path"
    | 4 -> Printf.sprintf "rel p = {(%d, %d)};rel q(a) = p(a, _);query q" k (k + 1)
    | _ -> [| "query nobody"; "stats"; "assert s"; "rel x = nosuch" |].(k mod 4)
  in
  let script = tc_open :: List.init 29 (fun k -> session (k + 1)) in
  let lines = split_lines (serve_lines ~jobs:2 script) in
  (* walk the replies: each [done n] closes request n, and rows before it
     belong to it *)
  let next =
    List.fold_left
      (fun n line ->
        match words line with
        | "out" :: id :: _ ->
            Alcotest.(check string) "a row of the open request" (string_of_int n) id;
            n
        | "done" :: id :: _ ->
            Alcotest.(check string) "the next status line" (string_of_int n) id;
            n + 1
        | _ -> Alcotest.failf "stray reply line %S" line)
      0 lines
  in
  Alcotest.(check int) "one status line per request" (List.length script) next;
  Alcotest.(check bool) "some queries returned rows" true
    (List.exists (String.starts_with ~prefix:"out ") lines)

(* ---- fact atoms through the loop -------------------------------------------------- *)

let test_quoted_and_probabilities () =
  let lines =
    split_lines
      (serve_lines
         [
           "open s type name(String);rel out(x) = name(x);query out";
           "assert s name(\"a,b\")";
           "assert s 0.5::name(\"x::y\")";
           "query s";
           "assert s nan::name(\"a,b\")";
           "assert s 1.5::name(\"z\")";
           "assert s -inf::name(\"z\")";
           "query s";
           "retract s name(\"a,b\")";
           "retract s name(\"x::y\")";
           "query s";
           "assert s 1::name(\"one\")";
           "assert s 0.0::name(\"zero\")";
         ])
  in
  let rows = [ "0.500000::out(\"x::y\")"; "1.000000::out(\"a,b\")" ] in
  Alcotest.(check (list string)) "quoted values round-trip" rows
    (List.sort compare (rows_of 3 lines));
  List.iter
    (fun n ->
      match words (status_of n lines) with
      | _ :: _ :: "error" :: "assert:" :: "probability" :: _ -> ()
      | _ -> Alcotest.failf "assert %d: %s" n (status_of n lines))
    [ 4; 5; 6 ];
  Alcotest.(check (list string)) "rejected probabilities change nothing" rows
    (List.sort compare (rows_of 7 lines));
  Alcotest.(check string) "retract \"a,b\"" "done 8 ok retracted s" (status_of 8 lines);
  Alcotest.(check string) "retract \"x::y\"" "done 9 ok retracted s" (status_of 9 lines);
  Alcotest.(check (list string)) "both retracted" [] (rows_of 10 lines);
  Alcotest.(check string) "probability 1 accepted" "done 11 ok asserted s" (status_of 11 lines);
  Alcotest.(check string) "probability 0 accepted" "done 12 ok asserted s" (status_of 12 lines)

let suite =
  [
    Alcotest.test_case "scallop serve and Server agree" `Quick test_cli_twin;
    Alcotest.test_case "a write waits for in-flight queries" `Quick test_write_waits;
    Alcotest.test_case "one status line per request" `Quick test_one_status_per_request;
    Alcotest.test_case "quoted strings and bad probabilities" `Quick
      test_quoted_and_probabilities;
  ]
