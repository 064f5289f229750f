(** Reverse-mode automatic differentiation over {!Nd} arrays.

    A [Var.t] records its value and, when reachable from parameters, the
    backward closures linking it to its parents.  [backward] performs the
    reverse topological sweep accumulating gradients — the ∂r/∂θ half of the
    paper's training pipeline, with {!Scallop_nn.Scallop_layer} supplying
    the ∂y/∂r half through the provenance framework. *)

type t = {
  id : int;
  mutable value : Nd.t;
  mutable grad : Nd.t option;
  parents : parent list;
  requires_grad : bool;
  op : string;
}

and parent = { var : t; push : Nd.t -> Nd.t  (** upstream grad → contribution *) }

(* Atomic so variables may be created from any domain (the batched Scallop
   layer keeps graph construction on the caller, but nothing should corrupt
   ids if user code builds graphs inside pool workers). *)
let counter = Atomic.make 0

let make ?(parents = []) ?(op = "leaf") ~requires_grad value =
  { id = 1 + Atomic.fetch_and_add counter 1; value; grad = None; parents; requires_grad; op }

(** A constant (no gradient tracked). *)
let const v = make ~requires_grad:false v

(** A trainable parameter. *)
let param v = make ~requires_grad:true v

let value t = t.value
let grad t = t.grad

let needs_grad parents = List.exists (fun p -> p.var.requires_grad) parents

let unary op v ~f ~df =
  let parents = [ { var = v; push = df } ] in
  make ~parents ~op ~requires_grad:(needs_grad parents) (f v.value)

let binary op a b ~f ~dfa ~dfb =
  let parents = [ { var = a; push = dfa }; { var = b; push = dfb } ] in
  make ~parents ~op ~requires_grad:(needs_grad parents) (f a.value b.value)

(* ---- arithmetic ------------------------------------------------------------- *)

let add a b = binary "add" a b ~f:Nd.add ~dfa:Fun.id ~dfb:Fun.id
let sub a b = binary "sub" a b ~f:Nd.sub ~dfa:Fun.id ~dfb:Nd.neg

let mul a b =
  binary "mul" a b ~f:Nd.mul ~dfa:(fun g -> Nd.mul g b.value) ~dfb:(fun g -> Nd.mul g a.value)

let scale k v = unary "scale" v ~f:(Nd.scale k) ~df:(Nd.scale k)

let matmul a b =
  binary "matmul" a b
    ~f:Nd.matmul
    ~dfa:(fun g -> Nd.matmul g (Nd.transpose b.value))
    ~dfb:(fun g -> Nd.matmul (Nd.transpose a.value) g)

let add_rowvec mat vec =
  binary "add_rowvec" mat vec
    ~f:Nd.add_rowvec
    ~dfa:Fun.id
    ~dfb:(fun g -> Nd.reshape (Nd.sum_rows g) vec.value.Nd.shape)

(* ---- activations --------------------------------------------------------------- *)

let relu v =
  unary "relu" v
    ~f:(Nd.map (fun x -> Float.max 0.0 x))
    ~df:(fun g -> Nd.map2 (fun gx x -> if x > 0.0 then gx else 0.0) g v.value)

let sigmoid v =
  let out = Nd.map (fun x -> 1.0 /. (1.0 +. exp (-.x))) v.value in
  let parents =
    [ { var = v; push = (fun g -> Nd.map2 (fun gx y -> gx *. y *. (1.0 -. y)) g out) } ]
  in
  make ~parents ~op:"sigmoid" ~requires_grad:v.requires_grad out

let tanh_ v =
  let out = Nd.map Float.tanh v.value in
  let parents =
    [ { var = v; push = (fun g -> Nd.map2 (fun gx y -> gx *. (1.0 -. (y *. y))) g out) } ]
  in
  make ~parents ~op:"tanh" ~requires_grad:v.requires_grad out

(** Row-wise softmax with the exact Jacobian-vector backward. *)
let softmax v =
  let out = Nd.softmax_rows v.value in
  let push g =
    let m = out.Nd.shape.(0) and n = out.Nd.shape.(1) in
    let res = Nd.zeros [| m; n |] in
    for i = 0 to m - 1 do
      (* dL/dx_j = y_j * (g_j - Σ_k g_k y_k) *)
      let dot = ref 0.0 in
      for k = 0 to n - 1 do
        dot := !dot +. (Nd.get2 g i k *. Nd.get2 out i k)
      done;
      for j = 0 to n - 1 do
        Nd.set2 res i j (Nd.get2 out i j *. (Nd.get2 g i j -. !dot))
      done
    done;
    res
  in
  make ~parents:[ { var = v; push } ] ~op:"softmax" ~requires_grad:v.requires_grad out

(* ---- reductions and losses --------------------------------------------------------- *)

let sum v =
  unary "sum" v ~f:(fun x -> Nd.scalar (Nd.sum x)) ~df:(fun g ->
      Nd.create v.value.Nd.shape g.Nd.data.(0))

(** Binary cross-entropy between predicted probabilities [p] (any shape) and
    targets [y] (same shape, entries in [0,1]); mean over elements. *)
let bce_loss ~eps p y =
  let clamp x = Float.min (1.0 -. eps) (Float.max eps x) in
  let n = float_of_int (Nd.numel p.value) in
  let f pv =
    Nd.scalar
      (-.(Nd.sum
            (Nd.map2
               (fun pi yi ->
                 let pi = clamp pi in
                 (yi *. log pi) +. ((1.0 -. yi) *. log (1.0 -. pi)))
               pv y.value))
        /. n)
  in
  let push g =
    let s = g.Nd.data.(0) /. n in
    Nd.map2
      (fun pi yi ->
        let pi = clamp pi in
        s *. ((pi -. yi) /. (pi *. (1.0 -. pi))))
      p.value y.value
  in
  make ~parents:[ { var = p; push } ] ~op:"bce" ~requires_grad:p.requires_grad (f p.value)

(** Cross-entropy of row-softmax probabilities [p] against integer labels;
    [p] must already be probabilities (rows sum to 1). *)
let nll_loss ~eps p labels =
  let m = p.value.Nd.shape.(0) in
  let f pv =
    let total = ref 0.0 in
    Array.iteri
      (fun i label -> total := !total -. log (Float.max eps (Nd.get2 pv i label)))
      labels;
    Nd.scalar (!total /. float_of_int m)
  in
  let push g =
    let s = g.Nd.data.(0) /. float_of_int m in
    let res = Nd.zeros p.value.Nd.shape in
    Array.iteri
      (fun i label ->
        Nd.set2 res i label (-.s /. Float.max eps (Nd.get2 p.value i label)))
      labels;
    res
  in
  make ~parents:[ { var = p; push } ] ~op:"nll" ~requires_grad:p.requires_grad (f p.value)

let mse_loss p y =
  let n = float_of_int (Nd.numel p.value) in
  let f pv = Nd.scalar (Nd.sum (Nd.map2 (fun a b -> (a -. b) ** 2.0) pv y.value) /. n) in
  let push g =
    let s = 2.0 *. g.Nd.data.(0) /. n in
    Nd.map2 (fun a b -> s *. (a -. b)) p.value y.value
  in
  make ~parents:[ { var = p; push } ] ~op:"mse" ~requires_grad:p.requires_grad (f p.value)

(** Create a variable from explicit value and a custom backward; the escape
    hatch used by the Scallop differentiable layer, whose "op" is a whole
    logic program. *)
let custom ~op ~value ~parents = make ~parents ~op ~requires_grad:(needs_grad parents) value

(* ---- numeric guardrails ------------------------------------------------------------- *)

(** Raised by {!backward_guarded} when a NaN or infinity is found; the
    payload names the offending op. *)
exception Non_finite of string

(* ---- backward pass ------------------------------------------------------------------ *)

let backward_internal ~guard (root : t) =
  (* Topological order via DFS; gradients flow from root to leaves. *)
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit v =
    if (not (Hashtbl.mem visited v.id)) && v.requires_grad then begin
      Hashtbl.replace visited v.id ();
      List.iter (fun p -> visit p.var) v.parents;
      order := v :: !order
    end
  in
  visit root;
  if guard && not (Nd.is_finite root.value) then
    raise (Non_finite (Printf.sprintf "non-finite loss value (op %s)" root.op));
  (* root gradient: ones *)
  root.grad <- Some (Nd.ones root.value.Nd.shape);
  List.iter
    (fun v ->
      match v.grad with
      | None -> ()
      | Some g ->
          List.iter
            (fun p ->
              if p.var.requires_grad then begin
                let contrib = p.push g in
                if guard && not (Nd.is_finite contrib) then
                  raise
                    (Non_finite
                       (Printf.sprintf "non-finite gradient flowing from %s into %s" v.op
                          p.var.op));
                match p.var.grad with
                | None -> p.var.grad <- Some (Nd.copy contrib)
                | Some acc -> Nd.add_ acc contrib
              end)
            v.parents)
    !order

let backward (root : t) = backward_internal ~guard:false root

(** Like {!backward}, but raises {!Non_finite} as soon as the loss value or
    any gradient contribution contains a NaN/Inf — {e before} the bad
    numbers can reach an optimizer.  Partially accumulated gradients are
    left behind on failure; callers recover with [zero_grad] and skip the
    optimizer step (the quarantine path of resilient training loops). *)
let backward_guarded (root : t) = backward_internal ~guard:true root

let zero_grad (params : t list) = List.iter (fun p -> p.grad <- None) params
