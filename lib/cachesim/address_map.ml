module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Layout = Mlo_layout.Layout
module Transform = Mlo_layout.Transform

type entry = {
  info : Array_info.t;
  base : int;
  transform : Transform.t;
  bytes : int; (* footprint of the transformed array *)
}

type t = {
  align : int;
  positions : (string, int) Hashtbl.t; (* declaration position; never mutated after build *)
  entries : entry array; (* declaration order *)
  footprint : int;
}

let round_up x align = (x + align - 1) / align * align

let transform_of info name layout =
  if Layout.rank layout <> Array_info.rank info then
    invalid_arg (Printf.sprintf "Address_map.build: layout rank for %s" name);
  Transform.make layout ~extents:(Array_info.extents info)

(* Place [info] under [transform] at the next aligned base after [cursor]. *)
let place ~align cursor info transform =
  let base = round_up !cursor align in
  let bytes = Transform.footprint_cells transform * Array_info.elem_size info in
  cursor := base + bytes;
  { info; base; transform; bytes }

let build ?(align = 64) prog ~layouts =
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Address_map.build: align must be a positive power of two";
  let infos = Program.arrays prog in
  let positions = Hashtbl.create (Array.length infos) in
  let cursor = ref 0 in
  let entries =
    Array.mapi
      (fun i info ->
        let name = Array_info.name info in
        Hashtbl.replace positions name i;
        let transform =
          match layouts name with
          | Some l -> transform_of info name l
          | None ->
            let rank = Array_info.rank info in
            Transform.make
              (if rank = 1 then Layout.trivial else Layout.row_major rank)
              ~extents:(Array_info.extents info)
        in
        place ~align cursor info transform)
      infos
  in
  { align; positions; entries; footprint = !cursor }

let position t name =
  match Hashtbl.find_opt t.positions name with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Address_map: unknown array %S (not in the program \
                       this map was built from)" name)

(* One Transform.make; the arrays declared after [name] move only when
   its footprint does, and then by the same aligned cursor walk as
   [build]. *)
let relayout t name layout =
  let pos = position t name in
  let old = t.entries.(pos) in
  let entries = Array.copy t.entries in
  let cursor = ref old.base in
  entries.(pos) <- place ~align:t.align cursor old.info (transform_of old.info name layout);
  if entries.(pos).bytes = old.bytes then { t with entries }
  else begin
    for k = pos + 1 to Array.length entries - 1 do
      let e = entries.(k) in
      entries.(k) <- place ~align:t.align cursor e.info e.transform
    done;
    { t with entries; footprint = !cursor }
  end

let entry t name = t.entries.(position t name)

let address t name idx =
  let e = entry t name in
  e.base + (Transform.cell_index e.transform idx * Array_info.elem_size e.info)

let footprint_bytes t = t.footprint
let base t name = (entry t name).base
let transform t name = (entry t name).transform
let elem_size t name = Array_info.elem_size (entry t name).info
