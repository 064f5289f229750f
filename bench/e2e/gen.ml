(** Seeded request generators for the serve workloads.

    Every request line comes with the answer the oracle expects, computed
    from the generator's own model of the state at the moment the line is
    sent.  The program under test sees only the lines. *)

type kind = Read | Write

type op = {
  line : string;
  kind : kind;
  expect : Reply.row list option;  (** sorted rows; [None]: only [done ... ok] is checked *)
}

let milli rng = 1 + Prng.int rng 999
let prob_text w = Printf.sprintf "0.%03d" w

(* ---- stateful sessions --------------------------------------------------------- *)

type sessions = {
  tenants : int;
  nodes : int;
  edges : int;  (** initial edges per tenant *)
  assert_pct : int;
  retract_pct : int;  (** the remaining share are [query] requests *)
}

(** Every tenant opens the same text, so they share one compiled plan. *)
let session_program =
  "type edge(i32, i32);rel src = {0};rel path(a, b) = edge(a, b);rel path(a, c) = path(a, \
   b), edge(b, c);rel reach(b) = src(a), path(a, b);query reach"

type tenant = {
  sid : string;
  index : (int * int, int) Hashtbl.t;  (** edge → slot in [edges] *)
  mutable edges : (int * int * int) array;  (** (a, b, weight in thousandths) *)
  mutable n : int;
}

type session_gen = { cfg : sessions; rng : Prng.t; ts : tenant array }

let add_edge t ((a, b, _) as e) =
  if t.n = Array.length t.edges then
    t.edges <- Array.append t.edges (Array.make (max 16 t.n) (0, 0, 0));
  t.edges.(t.n) <- e;
  Hashtbl.replace t.index (a, b) t.n;
  t.n <- t.n + 1

let remove_slot t i =
  let a, b, _ = t.edges.(i) in
  Hashtbl.remove t.index (a, b);
  t.n <- t.n - 1;
  if i < t.n then begin
    let ((a', b', _) as last) = t.edges.(t.n) in
    t.edges.(i) <- last;
    Hashtbl.replace t.index (a', b') i
  end

let rec absent_edge g t =
  let a = Prng.int g.rng g.cfg.nodes and b = Prng.int g.rng g.cfg.nodes in
  if a = b || Hashtbl.mem t.index (a, b) then absent_edge g t else (a, b, milli g.rng)

let session_gen (cfg : sessions) ~seed : session_gen =
  if cfg.edges > cfg.nodes * (cfg.nodes - 1) / 2 then
    invalid_arg "Gen.session_gen: graph too dense";
  let g =
    {
      cfg;
      rng = Prng.create ~seed ~stream:1;
      ts =
        Array.init cfg.tenants (fun i ->
            { sid = Printf.sprintf "t%d" i; index = Hashtbl.create 64; edges = [||]; n = 0 });
    }
  in
  Array.iter (fun t -> for _ = 1 to cfg.edges do add_edge t (absent_edge g t) done) g.ts;
  g

let edge_list t = Array.to_list (Array.sub t.edges 0 t.n)

let expected_reach g t =
  Oracle.widest ~nodes:g.cfg.nodes ~src:0 (edge_list t)
  |> List.map (fun (b, w) -> { Reply.pred = "reach"; args = [ b ]; tag = w * 1000 })

let query_op g t =
  { line = "query " ^ t.sid ^ " reach"; kind = Read; expect = Some (expected_reach g t) }

let assert_line t (a, b, w) = Printf.sprintf "assert %s %s::edge(%d, %d)" t.sid (prob_text w) a b

(** Open every tenant, assert its initial graph, then query it once so the
    measured phase starts from materialized state. *)
let session_setup g : op list =
  let ts = Array.to_list g.ts in
  let write line = { line; kind = Write; expect = None } in
  List.map (fun t -> write (Printf.sprintf "open %s %s" t.sid session_program)) ts
  @ List.concat_map (fun t -> List.map (fun e -> write (assert_line t e)) (edge_list t)) ts
  @ List.map (query_op g) ts

(* An empty graph cannot retract and a half-full one stops asserting, so
   the rejection sampling in [absent_edge] always terminates quickly. *)
let session_next g : op =
  let t = g.ts.(Prng.int g.rng (Array.length g.ts)) in
  let r = Prng.int g.rng 100 in
  let full = 2 * t.n >= g.cfg.nodes * (g.cfg.nodes - 1) in
  let r = if full && r < g.cfg.assert_pct then g.cfg.assert_pct else r in
  if r < g.cfg.assert_pct || (r < g.cfg.assert_pct + g.cfg.retract_pct && t.n = 0) then begin
    let e = absent_edge g t in
    add_edge t e;
    { line = assert_line t e; kind = Write; expect = None }
  end
  else if r < g.cfg.assert_pct + g.cfg.retract_pct then begin
    let i = Prng.int g.rng t.n in
    let a, b, _ = t.edges.(i) in
    remove_slot t i;
    { line = Printf.sprintf "retract %s edge(%d, %d)" t.sid a b; kind = Write; expect = None }
  end
  else query_op g t

(* ---- one-shot requests -------------------------------------------------------------- *)

type oneshot = {
  o_nodes : int;
  o_edges : int;
  groups : int;
  per_group : int;
  reach_pct : int;  (** reachability count *)
  unreach_pct : int;  (** unreachable-node count with [not]; the rest: group sum + count *)
}

let random_graph rng ~nodes ~edges =
  let seen = Hashtbl.create (2 * edges) in
  let rec pick acc k =
    if k = 0 then List.rev acc
    else
      let a = Prng.int rng nodes and b = Prng.int rng nodes in
      if a = b || Hashtbl.mem seen (a, b) then pick acc k
      else begin
        Hashtbl.add seen (a, b) ();
        pick ((a, b, 1) :: acc) (k - 1)
      end
  in
  pick [] edges

let join f l = String.concat ", " (List.map f l)

let closure_rules =
  "rel path(a, b) = edge(a, b);rel path(a, c) = path(a, b), edge(b, c);rel reach(b) = path(0, b)"

let cnt n = Some [ { Reply.pred = "cnt"; args = [ n ]; tag = 1_000_000 } ]

let oneshot_next rng (c : oneshot) : op =
  let r = Prng.int rng 100 in
  if r < c.reach_pct + c.unreach_pct then begin
    let edges = random_graph rng ~nodes:c.o_nodes ~edges:c.o_edges in
    let facts =
      "type edge(i32, i32);rel edge = {"
      ^ join (fun (a, b, _) -> Printf.sprintf "(%d, %d)" a b) edges
      ^ "};"
    in
    if r < c.reach_pct then
      {
        line = facts ^ closure_rules ^ ";rel cnt(n) = n := count(b: reach(b));query cnt";
        kind = Read;
        expect = cnt (Oracle.reach_count ~nodes:c.o_nodes ~src:0 edges);
      }
    else
      {
        line =
          facts ^ "type node(i32);rel node = {"
          ^ join string_of_int (List.init c.o_nodes Fun.id)
          ^ "};" ^ closure_rules
          ^ ";rel unreach(b) = node(b), not reach(b);rel cnt(n) = n := count(b: unreach(b));query \
             cnt";
        kind = Read;
        expect = cnt (Oracle.unreach_count ~nodes:c.o_nodes ~src:0 edges);
      }
  end
  else begin
    let items =
      List.concat
        (List.init c.groups (fun g -> List.init c.per_group (fun _ -> (g, Prng.int rng 1000))))
    in
    let expect =
      List.concat_map
        (fun (g, s, n) ->
          [
            { Reply.pred = "total"; args = [ g; s ]; tag = 1_000_000 };
            { Reply.pred = "sizes"; args = [ g; n ]; tag = 1_000_000 };
          ])
        (Oracle.group_sum_count items)
    in
    {
      line =
        "type item(i32, i32);rel item = {"
        ^ join (fun (g, v) -> Printf.sprintf "(%d, %d)" g v) items
        ^ "};rel total(g, s) = s := sum(x: item(g, x));rel sizes(g, n) = n := count(x: item(g, \
           x));query total;query sizes";
      kind = Read;
      expect = Some (List.sort compare expect);
    }
  end

(** Does a reply satisfy the op's expectation? *)
let check (op : op) ~ok ~(rows : string list) =
  ok && match op.expect with None -> true | Some want -> Reply.rows rows = Some want
