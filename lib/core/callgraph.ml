(** Static call graph + Tarjan SCC condensation (see the mli).

    Everything is deterministic: nodes are visited in sorted order and
    adjacency lists are sorted, so the bottom-up SCC order — and with it
    the summary fixpoint — is byte-stable across runs. *)

open Jir.Types

type node = class_name * method_name

let compare_node (c1, m1) (c2, m2) =
  match String.compare c1 c2 with 0 -> String.compare m1 m2 | c -> c

module Nmap = Map.Make (struct
  type t = node

  let compare = compare_node
end)

type scc = { members : node list; recursive : bool }

type t = {
  nodes : node list;  (** sorted *)
  succ : node list Nmap.t;  (** sorted, deduplicated *)
  pred : node list Nmap.t;
}

let direct_callees (prog : Jir.Program.t) (m : meth) : node list =
  Array.to_list m.code
  |> List.filter_map (function
       | Invoke mr | Spawn mr ->
           (* unknown targets cannot be summarized; drop the edge *)
           if Jir.Program.find_method prog mr <> None then
             Some (mr.mclass, mr.mname)
           else None
       | _ -> None)
  |> List.sort_uniq compare_node

let build (prog : Jir.Program.t) : t =
  let nodes =
    Jir.Program.all_methods prog
    |> List.map (fun ((c : cls), (m : meth)) -> (c.cname, m.mname))
    |> List.sort compare_node
  in
  let succ =
    List.fold_left
      (fun acc ((c : cls), (m : meth)) ->
        Nmap.add (c.cname, m.mname) (direct_callees prog m) acc)
      Nmap.empty
      (Jir.Program.all_methods prog)
  in
  let pred =
    Nmap.fold
      (fun caller callees acc ->
        List.fold_left
          (fun acc callee ->
            Nmap.update callee
              (function None -> Some [ caller ] | Some l -> Some (caller :: l))
              acc)
          acc callees)
      succ Nmap.empty
  in
  let pred = Nmap.map (List.sort_uniq compare_node) pred in
  { nodes; succ; pred }

let callees t n = Option.value (Nmap.find_opt n t.succ) ~default:[]
let callers t n = Option.value (Nmap.find_opt n t.pred) ~default:[]

(** Iterative Tarjan.  Emits SCCs callee-first: a component is completed
    only after every component it can reach, which is exactly the
    bottom-up order the summary engine wants. *)
let sccs_bottom_up (t : t) : scc list =
  let index = ref 0 in
  let idx : int Nmap.t ref = ref Nmap.empty in
  let low : int Nmap.t ref = ref Nmap.empty in
  let on_stack : bool Nmap.t ref = ref Nmap.empty in
  let stack = ref [] in
  let out = ref [] in
  let find m n = Nmap.find n !m in
  let set m n v = m := Nmap.add n v !m in
  (* explicit machine: (node, remaining callees) frames *)
  let rec visit (n : node) =
    set idx n !index;
    set low n !index;
    incr index;
    stack := n :: !stack;
    set on_stack n true;
    List.iter
      (fun c ->
        if not (Nmap.mem c !idx) then begin
          visit c;
          set low n (min (find low n) (find low c))
        end
        else if Option.value (Nmap.find_opt c !on_stack) ~default:false then
          set low n (min (find low n) (find idx c)))
      (callees t n);
    if find low n = find idx n then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | x :: rest ->
            stack := rest;
            set on_stack x false;
            if compare_node x n = 0 then x :: acc else pop (x :: acc)
      in
      let members = List.sort compare_node (pop []) in
      let recursive =
        match members with
        | [ m ] -> List.exists (fun c -> compare_node c m = 0) (callees t m)
        | _ -> true
      in
      out := { members; recursive } :: !out
    end
  in
  List.iter (fun n -> if not (Nmap.mem n !idx) then visit n) t.nodes;
  List.rev !out
