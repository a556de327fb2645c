// Fixture: no include guard at all.

#pragma once

int unguarded();
