(** Small directed-graph utilities used by the stratification analysis:
    strongly connected components (Tarjan).  Nodes are identified by
    integers [0 .. n-1]. *)

type t = { n : int; adj : int list array }

let create n = { n; adj = Array.make n [] }

let add_edge g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then invalid_arg "Graph.add_edge";
  if not (List.mem v g.adj.(u)) then g.adj.(u) <- v :: g.adj.(u)

(** Tarjan's algorithm.  Returns [(comp, ncomp)] where [comp.(v)] is the
    component index of node [v].  Component indices are assigned in reverse
    topological order of the condensation (i.e. if there is an edge from
    component [a] to component [b], then [a > b]). *)
let scc g =
  let index = Array.make g.n (-1) in
  let lowlink = Array.make g.n 0 in
  let on_stack = Array.make g.n false in
  let comp = Array.make g.n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Iterative Tarjan to avoid stack overflow on long chains. *)
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    Stack.push v stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      g.adj.(v);
    if lowlink.(v) = index.(v) then begin
      let continue = ref true in
      while !continue do
        let w = Stack.pop stack in
        on_stack.(w) <- false;
        comp.(w) <- !next_comp;
        if w = v then continue := false
      done;
      incr next_comp
    end
  in
  for v = 0 to g.n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (comp, !next_comp)
