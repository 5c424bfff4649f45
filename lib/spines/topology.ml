(* Overlay topology.

   A topology is the static set of overlay nodes and undirected links,
   known to every daemon (as in Spines, where the overlay graph is
   configuration). Liveness is dynamic and per daemon: hellos tell each
   daemon which of its own links are up, and flooding skips the dead
   ones.

   The constructor precomputes each node's neighbor array, sorted by id:
   the canonical flooding order that makes same-seed runs reproducible. *)

type node_id = int

type link = { a : node_id; b : node_id }

type t = {
  nodes : node_id list;
  links : link list;
  adjacency : (node_id, node_id array) Hashtbl.t; (* node -> sorted neighbors *)
}

let create ~nodes ~links =
  let known id = List.mem id nodes in
  let seen = Hashtbl.create (List.length links) in
  List.iter
    (fun l ->
      if not (known l.a && known l.b) then
        invalid_arg (Printf.sprintf "Topology.create: link %d-%d references unknown node" l.a l.b);
      if l.a = l.b then invalid_arg "Topology.create: self-link";
      (* A duplicate (a,b) pair would list the same neighbor twice and
         flood every message down that link twice. *)
      let key = (min l.a l.b, max l.a l.b) in
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Topology.create: duplicate link %d-%d" l.a l.b);
      Hashtbl.replace seen key ())
    links;
  let adjacency = Hashtbl.create (List.length nodes) in
  List.iter
    (fun n ->
      let arr =
        Array.of_list
          (List.filter_map
             (fun l -> if l.a = n then Some l.b else if l.b = n then Some l.a else None)
             links)
      in
      Array.sort compare arr;
      Hashtbl.replace adjacency n arr)
    nodes;
  { nodes; links; adjacency }

let nodes t = t.nodes

let links t = t.links

let link a b = { a; b }

(* Full mesh, as used for the replicas' internal network. *)
let full_mesh nodes =
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> link x y) rest @ pairs rest
  in
  create ~nodes ~links:(pairs nodes)

let neighbors t id = match Hashtbl.find t.adjacency id with a -> a | exception Not_found -> [||]

(* Binary search of the sorted neighbor array: no list, no allocation. *)
let rec mem_sorted (nb : node_id array) x lo hi =
  let mid = (lo + hi) / 2 in
  lo < hi
  && (nb.(mid) = x || if nb.(mid) < x then mem_sorted nb x (mid + 1) hi else mem_sorted nb x lo mid)

let adjacent t a b = let nb = neighbors t a in mem_sorted nb b 0 (Array.length nb)
