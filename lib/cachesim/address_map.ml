module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Layout = Mlo_layout.Layout
module Transform = Mlo_layout.Transform

type entry = { info : Array_info.t; base : int; transform : Transform.t }

type t = {
  entries : (string, entry) Hashtbl.t; (* never mutated after build *)
  footprint : int;
}

let round_up x align = (x + align - 1) / align * align

let transform_of info name layout =
  if Layout.rank layout <> Array_info.rank info then
    invalid_arg (Printf.sprintf "Address_map.build: layout rank for %s" name);
  Transform.make layout ~extents:(Array_info.extents info)

let build ?(align = 64) prog ~layouts =
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Address_map.build: align must be a positive power of two";
  let infos = Program.arrays prog in
  let entries = Hashtbl.create (Array.length infos) in
  let cursor = ref 0 in
  Array.iter
    (fun info ->
      let name = Array_info.name info in
      let transform =
        match layouts name with
        | Some l -> transform_of info name l
        | None ->
          let rank = Array_info.rank info in
          Transform.make
            (if rank = 1 then Layout.trivial else Layout.row_major rank)
            ~extents:(Array_info.extents info)
      in
      let base = round_up !cursor align in
      cursor :=
        base + (Transform.footprint_cells transform * Array_info.elem_size info);
      Hashtbl.replace entries name { info; base; transform })
    infos;
  { entries; footprint = !cursor }

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Address_map: unknown array %S (not in the program \
                       this map was built from)" name)

let layout_transform t name layout = transform_of (entry t name).info name layout

let address t name idx =
  let e = entry t name in
  e.base + (Transform.cell_index e.transform idx * Array_info.elem_size e.info)

let footprint_bytes t = t.footprint
let base t name = (entry t name).base
let transform t name = (entry t name).transform
let elem_size t name = Array_info.elem_size (entry t name).info
